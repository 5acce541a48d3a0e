"""The benchmark's workloads: inputs drawn from a seed, one operation, its checks.

Each workload makes a corpus of plain data (bytes, JSON text, integers) from
the seed, so the corpus outlives the re-imports the set-up timing performs.
``setup`` turns the corpus's canonical key JSON into keys with the freshly
imported library; ``run_unit`` performs one unit of the timed loop through a
tracer and books its counts, latencies and failures in a :class:`Tally`.
The names booked in ``Tally.counts`` under a layer prefix (``cipher.``,
``channel.``, ``correction.``, ``attacks.``) are per-layer metrics as they
stand; the harness divides them by the passes over the corpus.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

CLASSES = (
    "single",
    "diagonal",
    "antidiagonal",
    "column_left",
    "column_right",
    "row_top",
    "row_bottom",
)
RATIO_DIGITS = 2
BYTE_BOUND = 256
# Chosen plaintexts of the key-search attack, as row-major entries.
PROBES = ((1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0))
CAT = (2, 1, 1, 1)


@dataclass
class Tally:
    """What a window of the timed loop did."""

    counts: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    scale: float = 1.0  # wall-to-reference time factor, see speed.py

    def timed(self, op, seconds: float) -> None:
        """Record one pass's time of operation ``op``, in reference time."""
        self.samples.setdefault(op, []).append(seconds * self.scale)

    def fail(self, what: str, fatal: bool) -> None:
        """Count a failed operation; a fatal one makes the whole run incorrect."""
        self.counts["failed"] += 1
        if fatal:
            self.counts["fatal"] += 1
        if len(self.problems) < 5:
            self.problems.append(what)


@dataclass
class Corpus:
    """One pass's inputs: canonical key JSON, the units of the timed loop,
    the ground-truth corruption class of each repair block, and the
    seed-drawn facts the report prints."""

    key_texts: list[str]
    units: list
    block_class: dict[int, str] = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def draw_keys(lib, rng, n: int, count: int) -> list:
    """``count`` keys from ``random_cipher_key`` at exponent ``n``, stratified by size.

    A pool 32 times larger is sorted by the bit length of its largest
    coding-matrix entry and evenly spaced ranks are kept, so every seed gets
    nearly the same spread of big-int sizes and run-to-run differences come
    from the code rather than from which keys a seed happened to draw.
    """
    pool = [
        lib.sampling.random_cipher_key(rng, n_lo=n, n_hi=n, allow_bare_power=False)
        for _ in range(32 * count)
    ]
    pool.sort(key=lambda k: max(k.coding_matrix.matrix.entries()).bit_length())
    return [pool[(2 * i + 1) * len(pool) // (2 * count)] for i in range(count)]


def load_keys(lib, corpus: Corpus, tr) -> list:
    """Set-up: parse each canonical key JSON and build its coding matrix."""
    keys = []
    for text in corpus.key_texts:
        key, _ = tr.call("channel.loads_key", lib.channel.loads_key, text)
        tr.call("matrix.build_coding_matrix", getattr, key, "coding_matrix")
        keys.append(key)
    return keys


@dataclass(frozen=True)
class Roundtrip:
    """encrypt_message -> dumps_packages -> loads_packages -> verify_package -> decrypt_message."""

    n: int
    message_bytes: int
    keys: int = 32
    messages_per_key: int = 32
    op_name: str = "bench.roundtrip"

    def make_corpus(self, lib, rng, tr) -> Corpus:
        alphabet = lib.Alphabet.bytes_mode()
        keys = draw_keys(lib, rng, self.n, self.keys)
        units = [
            (k, rng.randbytes(self.message_bytes))
            for _ in range(self.messages_per_key)
            for k in range(self.keys)
        ]
        return Corpus([lib.channel.dumps_key(k, alphabet) for k in keys], units)

    def setup(self, lib, corpus: Corpus, tr):
        return lib, load_keys(lib, corpus, tr), lib.Alphabet.bytes_mode()

    def run_unit(self, state, index: int, unit, tr, tally: Tally) -> None:
        lib, keys, alphabet = state
        key_index, message = unit
        key = keys[key_index]
        counts = tally.counts
        counts["ops"] += 1
        start = perf_counter()
        try:
            packages = tr.call(
                "cipher.encrypt_message", lib.cipher.encrypt_message, message, key,
                alphabet, emit_column_ratio=True, ratio_digits=RATIO_DIGITS,
            )
            text = tr.call("channel.dumps_packages", lib.channel.dumps_packages, packages)
            received = tr.call("channel.loads_packages", lib.channel.loads_packages, text)
            unclean = [
                pkg.block_index for pkg in received
                if not tr.call("cipher.verify_package", lib.cipher.verify_package, pkg, key).clean
            ]
            out = tr.call("cipher.decrypt_message", lib.cipher.decrypt_message, received, key, alphabet)
        except Exception as exc:  # a crash in the library is a failed operation
            tally.fail(f"round trip raised {exc!r}", fatal=True)
            return
        tally.timed(index, perf_counter() - start)
        counts["cipher.blocks"] += len(packages)
        counts["cipher.verify_package.calls"] += len(received)
        counts["channel.wire_bytes"] += len(text)
        counts["plain_bytes"] += len(message)
        if unclean:
            tally.fail(f"blocks {unclean[:4]} did not verify clean", fatal=True)
        elif out != message:
            tally.fail("decrypted message differs from the input", fatal=True)
        else:
            counts["exact"] += 1

    def summary(self, tally: Tally, elapsed: float) -> dict:
        c = tally.counts
        return {
            "throughput_mb_s": (c["plain_bytes"] / elapsed / 1e6, "MB/s"),
            "wire_ratio": (c["channel.wire_bytes"] / max(1, c["plain_bytes"]), "ratio"),
        }


@dataclass(frozen=True)
class Repair:
    """loads_packages -> correct (each corrupted block) -> decrypt_message (each repair)."""

    n: int
    message_bytes: int = 256
    keys: int = 128
    op_name: str = "bench.repair"

    def make_corpus(self, lib, rng, tr) -> Corpus:
        alphabet = lib.Alphabet.bytes_mode()
        keys = draw_keys(lib, rng, self.n, self.keys)
        units, block_class, block_id = [], {}, 0
        for key_index, key in enumerate(keys):
            message = rng.randbytes(self.message_bytes)
            packages = lib.cipher.encrypt_message(
                message, key, alphabet, emit_column_ratio=True, ratio_digits=RATIO_DIGITS
            )
            spec = lib.channel.CorruptionSpec("random", rng.randrange(2**30))
            corrupted, diffs = tr.call(
                "channel.corrupt_packages", lib.channel.corrupt_packages, packages, spec
            )
            blocks = []
            for pkg, diff in zip(packages, diffs):
                i = pkg.block_index
                blocks.append((block_id, pkg.c.entries(), diff.mode, message[4 * i:4 * i + 4]))
                block_class[block_id] = diff.mode
                block_id += 1
            units.append((key_index, lib.channel.dumps_packages(corrupted), tuple(blocks)))
        return Corpus([lib.channel.dumps_key(k, alphabet) for k in keys], units, block_class)

    def setup(self, lib, corpus: Corpus, tr):
        return lib, load_keys(lib, corpus, tr), lib.Alphabet.bytes_mode()

    def run_unit(self, state, index: int, unit, tr, tally: Tally) -> None:
        lib, keys, alphabet = state
        key_index, text, blocks = unit
        key = keys[key_index]
        counts = tally.counts
        try:
            received = tr.call("channel.loads_packages", lib.channel.loads_packages, text)
        except Exception as exc:
            counts["ops"] += len(blocks)
            tally.fail(f"parsing corrupted packages raised {exc!r}", fatal=True)
            return
        counts["channel.wire_bytes"] += len(text)
        counts["plain_bytes"] += 4 * len(blocks)
        if len(received) != len(blocks):
            counts["ops"] += len(blocks)
            tally.fail(f"parsed {len(received)} packages, sent {len(blocks)}", fatal=True)
            return
        for pkg, (block_id, original, mode, plain) in zip(received, blocks):
            tr.op = block_id
            counts["ops"] += 1
            try:
                start = perf_counter()
                report = tr.call(
                    "correction.correct", lib.correction.correct, pkg, key,
                    plaintext_bound=BYTE_BOUND,
                )
                tally.timed(block_id, perf_counter() - start)
                out = None
                if report.repaired is not None:
                    out = tr.call(
                        "cipher.decrypt_message", lib.cipher.decrypt_message,
                        [dataclasses.replace(pkg, c=report.repaired)], key, alphabet,
                    )
                    counts["cipher.blocks"] += 1
            except Exception as exc:
                tally.fail(f"block {block_id} ({mode}) raised {exc!r}", fatal=False)
                continue
            counts[f"correction.calls.{mode}"] += 1
            counts[f"correction.candidates.{mode}"] += report.candidates_examined
            counts[f"correction.strategies.{mode}"] += len(report.attempts) - 1
            counts[f"correction.ambiguous.{mode}"] += report.ambiguous
            if report.repaired is None:
                counts[f"correction.reported.{mode}"] += 1
            elif report.repaired.entries() != original:
                counts[f"correction.wrong.{mode}"] += 1
                tally.fail(f"block {block_id} ({mode}) silently repaired wrong", fatal=False)
            elif out != plain:
                tally.fail(f"block {block_id} repaired exactly but decrypted wrong", fatal=True)
            else:
                counts[f"correction.exact.{mode}"] += 1
                counts["exact"] += 1

    def summary(self, tally: Tally, elapsed: float) -> dict:
        c = tally.counts
        return {
            "repaired_blocks_s": (c["ops"] / elapsed, "blocks/s"),
            "wire_ratio": (c["channel.wire_bytes"] / max(1, c["plain_bytes"]), "ratio"),
        }


def _mul(p, m):
    return (
        p[0] * m[0] + p[1] * m[2], p[0] * m[1] + p[1] * m[3],
        p[2] * m[0] + p[3] * m[2], p[2] * m[1] + p[3] * m[3],
    )


def reference_counts(hidden_n: int, side: int, seed_side: int, n_max: int) -> dict:
    """Consistent-key counts per multiplier, by plain-integer enumeration.

    An independent reading of what ``measure_unimodular_resistance`` must
    return for the sub-box of one multiplier U against the hidden key
    ``CipherKey.arnolds_cat(hidden_n)``: M(0) = [[a1, a0], [b1, b0]] is
    stepped by U once per exponent, and a candidate counts for query q when
    it reproduces every probe ciphertext up to q.  Multipliers with
    determinant other than +/-1 weigh no keys.
    """
    hidden = (1, 0, 1, 1)  # M(0) of the cat key: seed (0, 1)
    for _ in range(hidden_n):
        hidden = _mul(CAT, hidden)
    wanted = [_mul(p, hidden) for p in PROBES]
    expected = {}
    for u in itertools.product(range(side), repeat=4):
        a, b, c, d = u
        if a * d - b * c not in (1, -1):
            expected[u] = ((0,) * len(PROBES), 0)
            continue
        counts = [0] * len(PROBES)
        for a0, b0 in itertools.product(range(seed_side), repeat=2):
            m = (a * a0 + b * b0, a0, c * a0 + d * b0, b0)
            for _ in range(n_max):
                m = _mul(u, m)
                for q, (probe, want) in enumerate(zip(PROBES, wanted)):
                    if _mul(probe, m) != want:
                        break
                    counts[q] += 1
        expected[u] = (tuple(counts), seed_side * seed_side * n_max)
    return expected


@dataclass(frozen=True)
class AttackBox:
    """measure_unimodular_resistance per multiplier U of the box, plus attack_golden."""

    side: int = 6
    seed_side: int = 8
    n_max: int = 64
    op_name: str = "bench.attack"

    def make_corpus(self, lib, rng, tr) -> Corpus:
        hidden_n = rng.randint(2, 12)
        golden_n = rng.randint(200, 400)
        expected = reference_counts(hidden_n, self.side, self.seed_side, self.n_max)
        units = [("golden", golden_n)] + [("box", u, *expected[u]) for u in expected]
        texts = [
            lib.channel.dumps_key(lib.CipherKey.arnolds_cat(hidden_n)),
            lib.channel.dumps_key(lib.CipherKey.golden(golden_n)),
        ]
        return Corpus(texts, units, facts={"hidden_n": hidden_n, "golden_n": golden_n})

    def setup(self, lib, corpus: Corpus, tr):
        hidden, golden = load_keys(lib, corpus, tr)
        oracle = lib.attacks.EncryptionOracle.from_key
        probes = tuple(lib.Mat2(*p) for p in PROBES)
        return lib, oracle(hidden), oracle(golden), probes

    def run_unit(self, state, index: int, unit, tr, tally: Tally) -> None:
        lib, hidden, golden, probes = state
        counts = tally.counts
        counts["ops"] += 1
        start = perf_counter()
        try:
            if unit[0] == "golden":
                got = tr.call("attacks.attack_golden", lib.attacks.attack_golden, golden).n
                want = unit[1]
            else:
                _, (a, b, c, d), want_counts, want_enumerated = unit
                seeds, exponents = range(self.seed_side), range(1, self.n_max + 1)
                box = lib.attacks.ParamBox((a,), (b,), (c,), (d,), seeds, seeds, exponents)
                stats = tr.call(
                    "attacks.measure_unimodular_resistance",
                    lib.attacks.measure_unimodular_resistance, hidden, box, probes,
                )
                got = (stats.consistent_counts, stats.enumerated, stats.truncated)
                want = (want_counts, want_enumerated, False)
                counts["attacks.enumerated"] += stats.enumerated
                for q, count in enumerate(stats.consistent_counts, start=1):
                    counts[f"attacks.consistent.q{q}"] += count
        except Exception as exc:
            tally.fail(f"{unit[:2]} raised {exc!r}", fatal=True)
            return
        tally.timed(index, perf_counter() - start)
        if got != want:
            tally.fail(f"{unit[:2]}: got {got}, expected {want}", fatal=True)
        else:
            counts["exact"] += 1

    def summary(self, tally: Tally, elapsed: float) -> dict:
        return {"keys_s": (tally.counts["attacks.enumerated"] / elapsed, "keys/s")}


WORKLOADS = {
    "roundtrip_n10": Roundtrip(n=10, message_bytes=256),
    "roundtrip_n500": Roundtrip(n=500, message_bytes=64),
    "repair_n100": Repair(n=100),
    "attack_box": AttackBox(),
}
