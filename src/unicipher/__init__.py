"""Unimodular 2x2 matrix block ciphers with error detection and correction."""

from .attacks import (
    EncryptionOracle,
    KGoldenAttackResult,
    ParamBox,
    ResistanceStats,
    attack_golden,
    attack_k_golden,
    measure_unimodular_resistance,
)
from .cipher import (
    Alphabet,
    CipherKey,
    CipherPackage,
    ColumnRatioCheck,
    PlaintextMatrix,
    VerifyResult,
    VerifyStatus,
    decrypt,
    decrypt_message,
    encrypt,
    encrypt_message,
    verify_package,
)
from .correction import (
    CorrectionReport,
    ErrorClass,
    correct,
)
from .errors import (
    CheckNumberMismatch,
    CipherError,
    ComplexFixedPoints,
    DegenerateConvergenceWarning,
    DivisionByZeroInOrbit,
    FormatError,
    InvalidKey,
    NegativePlaintext,
    NoMatchInBounds,
    NonIntegralPlaintext,
    NotGoldenOracle,
    UnknownSymbol,
)
from .matrix import (
    DEFAULT_MAX_EXPONENT,
    CodingMatrix,
    KeyMatrix,
    Mat2,
    SeedPair,
    build_coding_matrix,
)
from .ratios import (
    ConvergenceMode,
    ConvergenceProfile,
    FixedPoints,
    RatioParams,
    convergence_profile,
    exponential_rate,
)

__version__ = "0.1.0"
