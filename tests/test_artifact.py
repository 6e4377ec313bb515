"""The persistent artifact store: round-trip, corruption, golden format.

Three proof obligations for :mod:`repro.artifact`:

* **Round trip** (hypothesis): for random FIBs across SAIL / RESAIL /
  DXR and widths, ``save -> load -> lookup_batch`` is bit-exact
  against a freshly built plan — scalar and vector backends, before
  *and after* churn applied on top of the loaded structure (a warm
  start must keep updating correctly, not just answering).
* **Corruption battery**: every tampered artifact — truncations,
  flipped bytes in each section, wrong magic, stale format version,
  content-digest mismatch against the serving FIB — fails with a
  typed :class:`~repro.artifact.ArtifactError`.  A corrupt snapshot
  may never produce a wrong answer; the seeded fuzz test closes the
  gap between the hand-picked cases by flipping random bits and
  asserting loads either succeed bit-identically (flips in unchecked
  padding) or raise typed.
* **Golden format**: saving a pinned tiny FIB reproduces
  ``tests/golden/artifact_fixture.rap`` byte for byte, and the
  committed fixture still loads — the on-disk format cannot drift
  silently.  Regenerate intentionally with ``--regen-golden``.
"""

import os
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Dxr, Resail, Sail
from repro.artifact import (
    ArtifactCatalog,
    ArtifactCorruptError,
    ArtifactDigestMismatch,
    ArtifactError,
    ArtifactFormatError,
    ArtifactNotFound,
    ArtifactTruncatedError,
    ArtifactVersionError,
)
from repro.artifact.format import MAGIC, _align, _PREFIX
from repro.control import ANNOUNCE, ManagedFib, RuntimePolicy, UpdateOp
from repro.datasets import small_example_fib
from repro.prefix.prefix import Prefix
from repro.prefix.trie import Fib

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FIXTURE = GOLDEN_DIR / "artifact_fixture.rap"

#: (label, width, factory) — the three state-exporting schemes; DXR
#: additionally at a narrow width (SAIL/RESAIL are IPv4-bound).
CONFIGS = [
    ("sail", 32, lambda fib: Sail(fib)),
    ("resail", 32, lambda fib: Resail(fib)),
    ("dxr", 32, lambda fib: Dxr(fib, k=16)),
    ("dxr-w16", 16, lambda fib: Dxr(fib, k=8)),
]


def _fib_from(width, triples):
    fib = Fib(width)
    for bits, length, hop in triples:
        fib.insert(Prefix.from_bits(bits % (1 << length) if length else 0,
                                    length, width), hop)
    return fib


def _probes(fib):
    out = []
    for prefix, _hop in fib:
        base = prefix.value
        out.append(base)
        out.append(base | ((1 << (fib.width - prefix.length)) - 1))
    out.extend(x * 2654435761 % (1 << fib.width) for x in range(32))
    return out


@st.composite
def fib_triples(draw, width):
    n = draw(st.integers(min_value=1, max_value=24))
    triples = []
    for _ in range(n):
        length = draw(st.integers(min_value=1, max_value=width))
        bits = draw(st.integers(min_value=0,
                                max_value=(1 << length) - 1))
        hop = draw(st.integers(min_value=0, max_value=200))
        triples.append((bits, length, hop))
    return triples


@pytest.mark.parametrize("label,width,factory", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_round_trip_bit_exact(tmp_path_factory, label, width, factory,
                              data):
    triples = data.draw(fib_triples(width), label="fib")
    fib = _fib_from(width, triples)
    algo = factory(fib)
    plan = algo.compile_plan()
    vplan = algo.compile_vector_plan(plan)

    root = tmp_path_factory.mktemp("catalog")
    catalog = ArtifactCatalog(str(root))
    catalog.save(label, algo, fib, vector_plan=vplan)
    loaded = catalog.load(label, factory=factory)
    warm = loaded.algorithm()
    warm_plan = warm.compile_plan()
    warm_vplan = warm.compile_vector_plan(warm_plan)

    probes = _probes(fib)
    assert list(warm_plan.lookup_batch(probes)) == \
        list(plan.lookup_batch(probes))
    assert warm_vplan.lookup_batch(probes).tolist() == \
        vplan.lookup_batch(probes).tolist()

    # Churn on top of the loaded base: the warm structure must keep
    # absorbing updates exactly like the cold one, through the delta
    # path a served warm start takes (DXR has no per-route insert; its
    # deltas re-derive slices in place).
    churn = [
        UpdateOp(ANNOUNCE, Prefix.from_bits(
            bits % (1 << length) if length else 0, length, width), hop)
        for bits, length, hop in data.draw(fib_triples(width),
                                           label="churn")]
    for structure in (algo, warm):
        managed = ManagedFib(factory, fib, algo=structure,
                             policy=RuntimePolicy(check_every=0,
                                                  guard_every=0))
        assert managed.apply_batch(churn) in ("batch_applied",
                                              "batch_rebuilt")
        probes = _probes(managed.oracle)
        want = [managed.oracle.lookup(a) for a in probes]
        assert list(managed.algo.compile_plan().lookup_batch(probes)) == want
        assert managed.algo.compile_vector_plan().lookup_batch_hops(
            probes) == want


# ---------------------------------------------------------------------------
# Corruption battery
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_artifact(tmp_path_factory):
    """One RESAIL artifact plus its parsed layout and baseline answers."""
    root = tmp_path_factory.mktemp("corruption-catalog")
    fib = Fib(32)
    rows = [(0x0A, 8, 1), (0x0A01, 16, 2), (0x0A0102, 24, 3),
            (0xC0A80101, 32, 4), (0x3F, 6, 5), (0x2, 3, 6)]
    for bits, length, hop in rows:
        fib.insert(Prefix.from_bits(bits, length, 32), hop)
    algo = Resail(fib)
    catalog = ArtifactCatalog(str(root))
    catalog.save("battery", algo, fib,
                 vector_plan=algo.compile_vector_plan())
    path = catalog.path("battery", "v001")
    probes = _probes(fib)
    baseline = [fib.lookup(a) for a in probes]
    return {
        "catalog": catalog,
        "path": path,
        "data": Path(path).read_bytes(),
        "fib": fib,
        "probes": probes,
        "baseline": baseline,
    }


def _load_bytes(tmp_path, blob, expect_fib=None):
    target = tmp_path / "snapshot.rap"
    target.write_bytes(blob)
    loaded = ArtifactCatalog.load_path(str(target), expect_fib=expect_fib)
    # Force every deferred verification: FIB digest, state import,
    # fingerprint check, view adoption.
    loaded.fib()
    return loaded


def _layout(blob):
    """Parse (header_len, data_start, sections) out of a snapshot."""
    import json
    magic, version, hlen = _PREFIX.unpack_from(blob, 0)
    header = json.loads(blob[_PREFIX.size:_PREFIX.size + hlen])
    data_start = _align(_PREFIX.size + hlen + 32)
    return hlen, data_start, header["sections"]


def test_truncations_raise_typed(saved_artifact, tmp_path):
    blob = saved_artifact["data"]
    hlen, data_start, sections = _layout(blob)
    last_end = data_start + max(e["offset"] + e["length"] for e in sections)
    cuts = [0, 7, 15, _PREFIX.size + hlen // 2,  # inside prefix/header
            data_start + 100,                    # inside the first blobs
            last_end - 1]                        # chops the last section
    for cut in cuts:
        with pytest.raises(ArtifactError) as err:
            _load_bytes(tmp_path, blob[:cut]).algorithm()
        assert isinstance(
            err.value, (ArtifactTruncatedError, ArtifactFormatError,
                        ArtifactCorruptError)), cut


def test_wrong_magic_raises_format_error(saved_artifact, tmp_path):
    blob = bytearray(saved_artifact["data"])
    blob[:len(MAGIC)] = b"NOTREPRO"
    with pytest.raises(ArtifactFormatError):
        _load_bytes(tmp_path, bytes(blob))


def test_stale_format_version_raises(saved_artifact, tmp_path):
    blob = bytearray(saved_artifact["data"])
    # The little-endian u32 after the magic is the format version.
    struct.pack_into("<I", blob, len(MAGIC), 999)
    with pytest.raises(ArtifactVersionError):
        _load_bytes(tmp_path, bytes(blob))


def test_format_1_artifact_is_refused_by_its_version(tmp_path,
                                                     monkeypatch):
    """Format 1 persisted a prefix TCAM's view as a ternary kind (a row
    matrix or per-group probes) that no reader rebuilds any more: such
    a file is refused for its version, a typed
    :class:`ArtifactVersionError`, before any view is reconstructed."""
    import repro.artifact.format as format_module
    import repro.core.vector as vector_module

    fib = Fib(32)
    for bits, length, hop in [(0x0A, 8, 1), (0xC0A80101, 32, 4)]:
        fib.insert(Prefix.from_bits(bits, length, 32), hop)
    algo = Resail(fib)
    real = vector_module.view_state

    def format_1(view):
        kind, meta, arrays = real(view)
        if kind != "range":
            return kind, meta, arrays
        return "ternary", meta, {"values": arrays["lefts"],
                                 "masks": arrays["lefts"],
                                 "data": arrays["hops"]}

    catalog = ArtifactCatalog(str(tmp_path / "catalog"))
    with monkeypatch.context() as patch:
        patch.setattr(format_module, "FORMAT_VERSION", 1)
        patch.setattr(vector_module, "view_state", format_1)
        catalog.save("old", algo, fib,
                     vector_plan=algo.compile_vector_plan())
    blob = Path(catalog.path("old", "v001")).read_bytes()
    assert b'"kind":"ternary"' in blob
    with pytest.raises(ArtifactVersionError, match="format version 1"):
        _load_bytes(tmp_path, blob).algorithm()


def test_header_flip_raises_corrupt(saved_artifact, tmp_path):
    blob = bytearray(saved_artifact["data"])
    blob[_PREFIX.size + 5] ^= 0x40
    with pytest.raises((ArtifactCorruptError, ArtifactFormatError)):
        _load_bytes(tmp_path, bytes(blob))


def test_every_section_flip_raises_corrupt(saved_artifact, tmp_path):
    blob = saved_artifact["data"]
    _hlen, data_start, sections = _layout(blob)
    assert sections, "battery artifact has no sections?"
    for entry in sections:
        if not entry["length"]:
            continue
        tampered = bytearray(blob)
        offset = data_start + entry["offset"] + entry["length"] // 2
        tampered[offset] ^= 0x01
        with pytest.raises(ArtifactCorruptError):
            loaded = _load_bytes(tmp_path, bytes(tampered))
            loaded.algorithm()


def test_digest_mismatch_against_serving_fib(saved_artifact, tmp_path):
    other = Fib(32)
    other.insert(Prefix.from_bits(0x0B, 8, 32), 9)
    with pytest.raises(ArtifactDigestMismatch):
        _load_bytes(tmp_path, saved_artifact["data"], expect_fib=other)
    # Same content but different width is a digest mismatch too.
    narrow = Fib(16)
    with pytest.raises(ArtifactDigestMismatch):
        _load_bytes(tmp_path, saved_artifact["data"], expect_fib=narrow)


def test_missing_artifact_raises_not_found(saved_artifact):
    catalog = saved_artifact["catalog"]
    with pytest.raises(ArtifactNotFound):
        catalog.load("no-such-name")
    with pytest.raises(ArtifactNotFound):
        catalog.load("battery", "v999")


def test_fuzz_bit_flips_fail_typed_or_load_identically(saved_artifact,
                                                       tmp_path):
    """Seeded fuzz: random single/multi bit flips anywhere in the file.

    Every flip either lands in unchecked padding — then the load must
    succeed and answer bit-identically — or it is caught by a checksum
    and raises a typed ArtifactError.  No third outcome: a fuzzed
    artifact never loads *and* answers differently, and never escapes
    with an untyped exception.
    """
    import random

    blob = saved_artifact["data"]
    probes = saved_artifact["probes"]
    baseline = saved_artifact["baseline"]

    # Byte positions the checksums do NOT cover: alignment padding
    # between the header and the data, and between/after sections.
    hlen, data_start, sections = _layout(blob)
    # They are the gaps between the sorted checked intervals.
    checked = sorted(
        [(0, _PREFIX.size + hlen + 32)]
        + [(data_start + entry["offset"], entry["length"])
           for entry in sections])
    padding, covered = [], 0
    for start, length in checked + [(len(blob), 0)]:
        padding.extend(range(covered, start))
        covered = max(covered, start + length)
    assert padding, "format has no alignment padding at all?"

    def _attempt(tampered):
        loaded = _load_bytes(tmp_path, bytes(tampered),
                             expect_fib=saved_artifact["fib"])
        algo = loaded.algorithm()
        assert list(algo.compile_plan().lookup_batch(probes)) == baseline
        assert algo.compile_vector_plan().lookup_batch_hops(probes) == \
            baseline

    failed = 0
    for seed in range(40):
        rng = random.Random(seed)
        tampered = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            tampered[rng.randrange(len(tampered))] ^= 1 << rng.randrange(8)
        try:
            _attempt(tampered)
        except ArtifactError:
            failed += 1
    assert failed, "no fuzzed flip was ever caught by a checksum"

    # Flips in the unchecked padding must load AND answer identically:
    # nothing in the reader may depend on padding bytes.
    for seed in range(10):
        rng = random.Random(1000 + seed)
        tampered = bytearray(blob)
        tampered[rng.choice(padding)] ^= 1 << rng.randrange(8)
        _attempt(tampered)


# ---------------------------------------------------------------------------
# Golden on-disk format
# ---------------------------------------------------------------------------


def _golden_save(tmp_path):
    fib = small_example_fib()
    algo = Dxr(fib, k=4)
    catalog = ArtifactCatalog(str(tmp_path / "golden-catalog"))
    catalog.save("fixture", algo, fib, version="v001",
                 vector_plan=algo.compile_vector_plan())
    return Path(catalog.path("fixture", "v001")).read_bytes(), fib


def test_golden_artifact_bytes_stable(tmp_path, regen_golden):
    blob, _fib = _golden_save(tmp_path)
    if regen_golden:
        GOLDEN_FIXTURE.write_bytes(blob)
        pytest.skip("regenerated tests/golden/artifact_fixture.rap")
    assert GOLDEN_FIXTURE.exists(), \
        "golden fixture missing; run with --regen-golden and commit it"
    golden = GOLDEN_FIXTURE.read_bytes()
    assert blob == golden, (
        "artifact byte layout drifted from tests/golden/"
        "artifact_fixture.rap — if intentional, regenerate with "
        "--regen-golden and commit the new fixture")


def test_golden_artifact_still_loads(tmp_path):
    if not GOLDEN_FIXTURE.exists():
        pytest.skip("golden fixture not generated yet")
    fib = small_example_fib()
    loaded = ArtifactCatalog.load_path(str(GOLDEN_FIXTURE), expect_fib=fib)
    algo = loaded.algorithm()
    probes = list(range(1 << fib.width))
    assert list(algo.compile_plan().lookup_batch(probes)) == \
        [fib.lookup(a) for a in probes]


# ---------------------------------------------------------------------------
# Catalog semantics
# ---------------------------------------------------------------------------


def test_catalog_versions_and_current(tmp_path):
    fib = small_example_fib()
    algo = Dxr(fib, k=4)
    catalog = ArtifactCatalog(str(tmp_path))
    v1 = catalog.save("table", algo, fib)
    v2 = catalog.save("table", algo, fib)
    assert (v1, v2) == ("v001", "v002")
    assert catalog.versions("table") == ["v001", "v002"]
    assert catalog.current("table") == "v002"
    catalog.set_current("table", "v001")
    assert catalog.load("table").version == "v001"
    with pytest.raises(ArtifactError):
        catalog.save("table", algo, fib, version="v001")  # immutable
    report = catalog.verify("table", "v002")
    assert report["sections"] >= 3


def test_deep_verify_battery(saved_artifact):
    report = saved_artifact["catalog"].verify("battery", deep=True)
    assert report["probes"] > 0
    assert report["algorithm"] == "resail"
