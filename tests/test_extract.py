import random

import pytest

from omegalarge import extract
from omegalarge.extract import (
    CountingFailure,
    decompose_mixed,
    fuse,
    pigeonhole_extract,
)
from omegalarge.formula import TOP, Pi03Sentence, parse
from omegalarge.largeness import (
    LargenessSpec,
    PreconditionError,
    check_large,
    is_plain_large,
    t_apart,
    verify_certificate,
)
from omegalarge.sets import ColoringTable, FinSet, SparsityPolicy

X38 = FinSet.interval(3, 38)


def test_pigeonhole_base_case():
    f = ColoringTable.from_function(X38, 1, 3, lambda v: v % 3)
    out = pigeonhole_extract(X38, f, 0, TOP)
    assert len(out.homogeneous) == 1
    assert out.color == f(out.homogeneous.minimum)


def test_pigeonhole_constant_coloring():
    f = ColoringTable.from_function(X38, 1, 3, lambda v: 1)
    out = pigeonhole_extract(X38, f, 1, TOP)
    assert out.color == 1
    assert verify_certificate(out.homogeneous, out.certificate, LargenessSpec(1, 1, TOP))
    assert not out.used_fallback  # the first block is already homogeneous


def test_pigeonhole_random_colorings_always_verified():
    rng = random.Random(99)
    for _ in range(50):
        f = ColoringTable.random(X38, 1, 3, rng)
        out = pigeonhole_extract(X38, f, 1, TOP)
        assert all(f(v) == out.color for v in out.homogeneous)
        assert verify_certificate(out.homogeneous, out.certificate, LargenessSpec(1, 1, TOP))


def test_pigeonhole_strict_never_falls_back():
    # strict mode either follows the inductive argument to the end or
    # raises; it never silently switches to the fallback search
    rng = random.Random(4)
    completed = 0
    for _ in range(40):
        f = ColoringTable.random(X38, 1, 3, rng)
        try:
            out = pigeonhole_extract(X38, f, 1, TOP, strict=True)
        except CountingFailure:
            continue
        completed += 1
        assert not out.used_fallback
        assert verify_certificate(out.homogeneous, out.certificate, LargenessSpec(1, 1, TOP))
    assert completed > 0


def test_pigeonhole_fallback_is_complete():
    # the fallback reduces to whole color classes: largeness is closed
    # under supersets, so it finds a witness exactly when one exists
    from omegalarge.largeness import check_large as cl
    from omegalarge.largeness import large_color_class

    blk = cl(X38, LargenessSpec(2, 1, TOP)).blocks[0]
    f = ColoringTable.from_function(X38, 1, 3, lambda v: 0 if v < 20 else 1)
    color, cls, out_cert = large_color_class(X38.elements[blk.lo: blk.hi], f, LargenessSpec(1, 1, TOP))
    assert color == 0 and verify_certificate(cls, out_cert, LargenessSpec(1, 1, TOP))


def test_pigeonhole_preconditions():
    f = ColoringTable.from_function(X38, 1, 3, lambda v: v % 3)
    small = FinSet((3, 4, 5))
    with pytest.raises(PreconditionError):
        pigeonhole_extract(small, f, 1, TOP)  # not large enough at 2b
    with pytest.raises(PreconditionError):
        pigeonhole_extract(X38, f, 1, TOP, policy=SparsityPolicy.LINEAR)
    big = ColoringTable.from_function(X38, 1, 7, lambda v: v % 7)
    with pytest.raises(PreconditionError):
        pigeonhole_extract(X38, big, 1, TOP)  # more colors than min X


def test_pigeonhole_with_sentence():
    t = Pi03Sentence(parse("y = x + 1 and true"))
    rng = random.Random(17)
    for _ in range(10):
        f = ColoringTable.random(X38, 1, 3, rng)
        out = pigeonhole_extract(X38, f, 1, t)
        assert all(f(v) == out.color for v in out.homogeneous)
        assert verify_certificate(out.homogeneous, out.certificate, LargenessSpec(1, 1, t))


def test_decompose_mixed_base():
    out = decompose_mixed(X38, 0, 0, TOP)
    assert len(out.blocks) == 1
    assert len(out.minima) == 1  # nonempty minima set


def test_decompose_mixed_minima_large():
    out = decompose_mixed(X38, 0, 1, TOP)
    assert is_plain_large(out.minima.elements, 1)
    for cert, blk in zip(out.block_certificates, out.blocks):
        assert verify_certificate(blk, cert, LargenessSpec(0, 1, TOP))
    for left, right in zip(out.blocks, out.blocks[1:]):
        assert t_apart(left, right, TOP)


def test_decompose_mixed_exponent_one_blocks():
    # no desk-scale set is large at exponent 3 (the least one above 3 has
    # about 10^30 elements), so n + m + 1 = 2 is the realistic frontier
    out = decompose_mixed(X38, 1, 0, TOP)
    assert len(out.blocks) == 1
    assert verify_certificate(out.blocks[0], out.block_certificates[0], LargenessSpec(1, 1, TOP))


def test_decompose_mixed_with_sentence():
    t = Pi03Sentence(parse("y = x + 1 and true"))
    out = decompose_mixed(X38, 0, 1, t)
    assert is_plain_large(out.minima.elements, 1)
    for left, right in zip(out.blocks, out.blocks[1:]):
        assert t_apart(left, right, t)


def test_decompose_mixed_precondition():
    with pytest.raises(PreconditionError):
        decompose_mixed(FinSet((3, 4, 5, 6)), 1, 1, TOP)
    # n + m + 1 is still a valid exponent; a negative m used to recurse past
    # the certificate's leaves and fail an assert
    for n, m in ((-1, 1), (1, -1)):
        with pytest.raises(PreconditionError, match=">= 0"):
            decompose_mixed(FinSet.interval(3, 40), n, m, TOP)


def test_fuse_base_case():
    # b = 0 needs the maxima set plainly large at exponent 1, hence the
    # ten short blocks rather than the canonical three
    singles = [FinSet.interval(4 + 3 * i, 5 + 3 * i) for i in range(10)]
    maxima = FinSet(tuple(s.maximum for s in singles))
    assert is_plain_large(maxima.elements, 1)
    out = fuse(singles[0], singles[1:], 0, 0, TOP)
    # every later block, also those past the maxima certificate's block
    assert out.fused.elements == (singles[0].maximum, *(v for s in singles[1:] for v in s))
    assert verify_certificate(out.fused, out.certificate, LargenessSpec(0, 1, TOP))


def test_fuse_step_case():
    # singleton blocks at every point of a large set: maxima set is the
    # whole thing, large at exponent 2; fusing gives exponent 0 + 1 = 1
    singles = [FinSet((v,)) for v in range(3, 39)]
    out = fuse(singles[0], singles[1:], 0, 1, TOP)
    assert verify_certificate(out.fused, out.certificate, LargenessSpec(1, 1, TOP))
    assert out.fused.minimum == 3


def test_fuse_wide_blocks():
    # the chain [v, 2v], [2v+1, 4v+2], ... : every block is minimally large
    # at exponent 1 and nine of them make the maxima set plainly large
    blocks = []
    v = 4
    for _ in range(9):
        blocks.append(FinSet.interval(v, 2 * v))
        v = 2 * v + 1
    assert all(len(b) == b.minimum + 1 for b in blocks)
    maxima = FinSet(tuple(b.maximum for b in blocks))
    assert is_plain_large(maxima.elements, 1)
    out = fuse(blocks[0], blocks[1:], 1, 0, TOP)
    assert out.fused.elements == (blocks[0].maximum, *(v for b in blocks[1:] for v in b))
    assert verify_certificate(out.fused, out.certificate, LargenessSpec(1, 1, TOP))


def test_extractors_recheck_their_output(monkeypatch):
    monkeypatch.setattr(extract, "verify_certificate", lambda *args, **kwargs: False)
    singles = [FinSet((v,)) for v in range(3, 39)]
    with pytest.raises(RuntimeError):
        fuse(singles[0], singles[1:], 0, 1, TOP)
    f = ColoringTable.from_function(X38, 1, 3, lambda v: v % 3)
    with pytest.raises(RuntimeError):
        pigeonhole_extract(X38, f, 0, TOP)


def test_fuse_preconditions():
    with pytest.raises(PreconditionError):
        fuse(FinSet((3, 4)), [], 0, 0, TOP)
    with pytest.raises(PreconditionError):
        fuse(FinSet((3, 4)), [FinSet((4, 5))], 0, 0, TOP)  # overlap
    never = Pi03Sentence(parse("y < x"))
    with pytest.raises(PreconditionError):
        fuse(FinSet((3, 4)), [FinSet((9, 10))], 0, 0, never)  # not apart


def test_fuse_with_sentence():
    t = Pi03Sentence(parse("y = x + 1 and true"))
    singles = [FinSet((v,)) for v in range(3, 39)]
    out = fuse(singles[0], singles[1:], 0, 1, t)
    assert verify_certificate(out.fused, out.certificate, LargenessSpec(1, 1, t), paranoid=True)


def test_decompose_mixed_rechecks_its_output(monkeypatch):
    # each postcondition raises, also under python -O
    real_check_large = extract.check_large

    def blocks_not_large(x, spec, **kwargs):
        return None if spec.exponent == 0 else real_check_large(x, spec, **kwargs)

    faults = [
        ("check_large", blocks_not_large, "lost largeness"),
        ("t_apart", lambda *args: False, "not apart"),
        ("is_plain_large", lambda *args: False, "not plainly large"),
    ]
    for name, fake, message in faults:
        with monkeypatch.context() as m:
            m.setattr(extract, name, fake)
            with pytest.raises(RuntimeError, match=message):
                decompose_mixed(X38, 0, 1, TOP)
