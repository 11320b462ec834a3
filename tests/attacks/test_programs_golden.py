"""Golden-parity tests: compiled programs vs the original generators.

The hand-written generators the attack zoo started as are
re-implemented here verbatim as *reference* functions; every DSL
program must reproduce their output bit-identically. This is the
contract that let the zoo be replaced by programs without touching a
single pinned harness outcome.
"""

import itertools

import numpy as np
import pytest

from repro.attacks.programs import (
    double_sided_program,
    half_double_program,
    many_sided_program,
    random_noise_program,
    rcc_thrash_program,
    rct_region_program,
    single_sided_program,
    thrash_then_hammer_program,
)
from repro.attacks.compile import compile_program
from repro.attacks.resolve import resolve
from repro.core.rct import RowCountTable
from repro.dram.timing import PAPER_GEOMETRY, DramGeometry

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


# ----------------------------------------------------------------------
# Reference implementations (the original generators, frozen)
# ----------------------------------------------------------------------


def ref_single_sided(aggressor, hammers):
    return [aggressor] * hammers


def ref_double_sided(victim, hammers_per_side):
    return [victim - 1, victim + 1] * hammers_per_side


def ref_many_sided(aggressors, rounds):
    return list(
        itertools.chain.from_iterable([list(aggressors)] * rounds)
    )


def ref_half_double(victim, far_hammers, near_ratio=1000):
    sequence = []
    near = [victim - 1, victim + 1]
    far = [victim - 2, victim + 2]
    for i in range(far_hammers):
        sequence.append(far[i % 2])
        if near_ratio and i % near_ratio == near_ratio - 1:
            sequence.append(near[(i // near_ratio) % 2])
    return sequence


def ref_thrash_then_hammer(aggressor, decoy_rows, hammers, interleave=1):
    sequence = []
    decoys = list(decoy_rows)
    for i in range(hammers):
        sequence.append(aggressor)
        if decoys and i % interleave == 0:
            sequence.extend(decoys)
    return sequence


def ref_rcc_thrash(geometry, target_rows, rounds, seed=11):
    rng = np.random.default_rng(seed)
    rows = rng.choice(
        geometry.total_rows // 2, size=target_rows, replace=False
    )
    sequence = []
    for _ in range(rounds):
        rng.shuffle(rows)
        sequence.extend(int(r) for r in rows)
    return sequence


def ref_rct_region_attack(geometry, hammers, counter_bytes=1):
    table = RowCountTable(geometry, counter_bytes=counter_bytes)
    base = table.meta_base_local
    meta_rows = [
        bank * geometry.rows_per_bank + base + offset
        for bank in range(min(2, geometry.total_banks))
        for offset in range(table.meta_rows_per_bank)
    ]
    first_two = meta_rows[:2] if len(meta_rows) >= 2 else meta_rows
    return list(itertools.islice(itertools.cycle(first_two), hammers))


def rows_of(program):
    return compile_program(resolve(program)).rows()


class TestProgramParity:
    """DSL programs compile to the reference outputs bit-identically."""

    @pytest.mark.parametrize("hammers", [0, 1, 100, 1259])
    def test_single_sided(self, hammers):
        assert rows_of(single_sided_program(5, hammers)) == (
            ref_single_sided(5, hammers)
        )

    @pytest.mark.parametrize("hammers", [0, 1, 37, 640])
    def test_double_sided(self, hammers):
        assert rows_of(double_sided_program(50, hammers)) == (
            ref_double_sided(50, hammers)
        )

    @pytest.mark.parametrize(
        "aggressors,rounds",
        [([7], 3), ([200 + i for i in range(18)], 55), ([1, 2, 3], 0)],
    )
    def test_many_sided(self, aggressors, rounds):
        assert rows_of(many_sided_program(aggressors, rounds)) == (
            ref_many_sided(aggressors, rounds)
        )

    @pytest.mark.parametrize(
        "far_hammers,near_ratio",
        [(0, 1000), (250, 0), (5007, 100), (2500, 1000), (3, 1)],
    )
    def test_half_double(self, far_hammers, near_ratio):
        assert rows_of(
            half_double_program(500, far_hammers, near_ratio)
        ) == ref_half_double(500, far_hammers, near_ratio)

    @pytest.mark.parametrize(
        "decoys,hammers,interleave",
        [([], 10, 1), (range(100, 140), 333, 7), ([9], 5, 1)],
    )
    def test_thrash_then_hammer(self, decoys, hammers, interleave):
        assert rows_of(
            thrash_then_hammer_program(5, decoys, hammers, interleave)
        ) == ref_thrash_then_hammer(5, decoys, hammers, interleave)

    @pytest.mark.parametrize("target_rows,rounds", [(50, 3), (1, 1), (64, 0)])
    def test_rcc_thrash(self, target_rows, rounds):
        assert rows_of(
            rcc_thrash_program(GEOMETRY, target_rows, rounds, seed=11)
        ) == ref_rcc_thrash(GEOMETRY, target_rows, rounds, seed=11)

    @pytest.mark.parametrize("hammers", [0, 1, 2, 101, 10])
    @pytest.mark.parametrize("geometry", [GEOMETRY, PAPER_GEOMETRY])
    def test_rct_region(self, geometry, hammers):
        assert rows_of(rct_region_program(geometry, hammers)) == (
            ref_rct_region_attack(geometry, hammers)
        )

    def test_random_noise_matches_arena_battery(self):
        import random as _random

        rng = _random.Random(0xA12E5A)
        expected = [rng.randrange(4096) for _ in range(2000)]
        assert rows_of(
            random_noise_program(2000, 4096, 0xA12E5A)
        ) == expected


class TestShimParity:
    """Program-vs-reference spot checks on one argument set per builder,
    and the original generators' validation errors, raised by the
    builders. (The programs replaced a shim facade; the class keeps its
    name so its test ids stay stable.)"""

    def test_outputs_match_references(self):
        assert rows_of(single_sided_program(5, 100)) == ref_single_sided(
            5, 100
        )
        assert rows_of(double_sided_program(50, 37)) == ref_double_sided(
            50, 37
        )
        assert rows_of(many_sided_program([1, 5, 9], 4)) == ref_many_sided(
            [1, 5, 9], 4
        )
        assert rows_of(half_double_program(500, 2500)) == ref_half_double(
            500, 2500
        )
        assert rows_of(
            thrash_then_hammer_program(5, range(20, 30), 33, 3)
        ) == ref_thrash_then_hammer(5, range(20, 30), 33, 3)
        assert rows_of(rcc_thrash_program(GEOMETRY, 50, 3)) == (
            ref_rcc_thrash(GEOMETRY, 50, 3)
        )
        assert rows_of(rct_region_program(GEOMETRY, 101)) == (
            ref_rct_region_attack(GEOMETRY, 101)
        )

    def test_historical_validation_errors(self):
        with pytest.raises(ValueError):
            single_sided_program(5, -1)
        with pytest.raises(ValueError):
            double_sided_program(0, 5)
        with pytest.raises(ValueError):
            many_sided_program([], 5)
        with pytest.raises(ValueError):
            half_double_program(1, 5)
        with pytest.raises(ValueError):
            thrash_then_hammer_program(5, [1], 5, interleave=0)


class TestShimBounds:
    """Geometry validation at resolve time (the silent-bounds bugfix:
    the original generators emitted out-of-range rows unchecked)."""

    def test_double_sided_top_row_raises_with_geometry(self):
        from repro.attacks.resolve import AttackBoundsError

        top = GEOMETRY.total_rows - 1
        with pytest.raises(AttackBoundsError):
            resolve(double_sided_program(top, 2), geometry=GEOMETRY)

    def test_double_sided_top_row_clamps_on_request(self):
        top = GEOMETRY.total_rows - 1
        rows = compile_program(
            resolve(
                double_sided_program(top, 2), geometry=GEOMETRY, bounds="clamp"
            )
        ).rows()
        assert rows == [top - 1, top, top - 1, top]
        assert max(rows) < GEOMETRY.total_rows

    def test_without_geometry_keeps_historical_behaviour(self):
        top = GEOMETRY.total_rows - 1
        rows = rows_of(double_sided_program(top, 1))
        assert rows == [top - 1, top + 1]  # out of range, as ever

    def test_rct_region_validates_unconditionally(self):
        # The meta rows live inside the geometry; this must not raise.
        rows = compile_program(
            resolve(rct_region_program(GEOMETRY, 10), geometry=GEOMETRY)
        ).rows()
        assert all(0 <= r < GEOMETRY.total_rows for r in rows)
