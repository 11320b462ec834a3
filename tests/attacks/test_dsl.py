"""Tests for the attack DSL core: ops, parse, resolve, compile."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.compile import (
    EVENT_ACT,
    EVENT_SYNC,
    compile_program,
    exercised_within,
)
from repro.attacks.ops import (
    Act,
    Loop,
    Nop,
    P,
    Placeholder,
    Pre,
    Program,
    SyncRefresh,
)
from repro.attacks.parse import ParseError, ProgramBuilder, parse_program
from repro.attacks.resolve import (
    AttackBoundsError,
    UnboundPlaceholderError,
    resolve,
)
from repro.dram.timing import DramGeometry

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


class TestPlaceholders:
    def test_offset_arithmetic(self):
        p = P("victim")
        assert (p + 1) == Placeholder("victim", 1)
        assert (p - 2) == Placeholder("victim", -2)
        assert (p + 1) - 1 == p

    def test_render_forms(self):
        assert P("v").render() == "$v"
        assert (P("v") + 3).render() == "$v+3"
        assert (P("v") - 3).render() == "$v-3"

    def test_program_placeholder_inventory(self):
        prog = Program(
            name="t",
            ops=(
                Act(row=P("a")),
                Loop(count=P("n"), body=(Act(row=P("b") + 1),)),
            ),
            defaults={"a": 1},
        )
        assert prog.placeholders() == ("a", "b", "n")
        assert prog.unbound() == ("b", "n")


class TestBuilder:
    def test_builds_nested_loops(self):
        b = ProgramBuilder("nested")
        with b.loop(3):
            b.act(5).pre()
            with b.loop(2):
                b.act(7).pre()
        prog = b.build()
        assert len(prog.ops) == 1
        outer = prog.ops[0]
        assert isinstance(outer, Loop) and outer.count == 3
        assert isinstance(outer.body[2], Loop)

    def test_unclosed_loop_raises(self):
        b = ProgramBuilder("open")
        cm = b.loop(2)
        cm.__enter__()
        b.act(1)
        with pytest.raises(ValueError):
            b.build()

    def test_empty_loop_body_raises(self):
        b = ProgramBuilder("empty")
        with pytest.raises(ValueError, match="empty loop body"):
            with b.loop(3):
                pass

    @pytest.mark.parametrize("name", ["two words", "", " lead", "tab\tin"])
    def test_name_must_be_one_token(self, name):
        with pytest.raises(ValueError, match="one non-whitespace token"):
            ProgramBuilder(name)


class TestParse:
    def test_round_trips_render(self):
        source = """# program: demo
let victim = 500
sync_refresh
loop $n:
    act row=$victim-1
    pre
    act row=$victim+1
    pre
nop 16
"""
        prog = parse_program(source)
        assert prog.name == "demo"
        assert prog.defaults == {"victim": 500}
        assert parse_program(prog.render()) == prog

    def test_bank_addressed_act(self):
        prog = parse_program("act bank=1 row=3\n")
        assert prog.ops == (Act(row=3, bank=1),)

    def test_rejects_tabs(self):
        with pytest.raises(ParseError):
            parse_program("loop 2:\n\tact row=1\n")

    def test_rejects_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_program("hammer row=1\n")

    def test_rejects_empty_loop_body(self):
        with pytest.raises(ParseError):
            parse_program("loop 2:\nact row=1\n")

    def test_rejects_let_inside_loop(self):
        with pytest.raises(ParseError):
            parse_program("loop 2:\n    let x = 1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_program("act row=1\nbogus\n")


class TestResolve:
    def test_bindings_override_defaults(self):
        prog = Program("t", ops=(Act(row=P("r")),), defaults={"r": 5})
        assert resolve(prog).ops == (Act(row=5),)
        assert resolve(prog, bindings={"r": 9}).ops == (Act(row=9),)

    def test_unbound_placeholder_is_named(self):
        prog = Program("t", ops=(Act(row=P("mystery")),))
        with pytest.raises(UnboundPlaceholderError, match="mystery"):
            resolve(prog)

    def test_offsets_apply_after_binding(self):
        prog = Program("t", ops=(Act(row=P("v") - 1), Act(row=P("v") + 1)))
        ops = resolve(prog, bindings={"v": 100}).ops
        assert ops == (Act(row=99), Act(row=101))

    def test_bank_addressing_normalizes_to_global(self):
        prog = Program("t", ops=(Act(row=3, bank=1),))
        resolved = resolve(prog, geometry=GEOMETRY)
        assert resolved.ops == (Act(row=GEOMETRY.rows_per_bank + 3),)

    def test_bank_addressing_without_geometry_raises(self):
        prog = Program("t", ops=(Act(row=3, bank=1),))
        with pytest.raises(ValueError, match="geometry"):
            resolve(prog)

    def test_out_of_range_bank_always_raises(self):
        prog = Program("t", ops=(Act(row=0, bank=2),))
        with pytest.raises(AttackBoundsError):
            resolve(prog, geometry=GEOMETRY, bounds="clamp")

    def test_row_bounds_raise_by_default(self):
        prog = Program("t", ops=(Act(row=GEOMETRY.total_rows),))
        with pytest.raises(AttackBoundsError):
            resolve(prog, geometry=GEOMETRY)

    def test_row_bounds_clamp_policy(self):
        prog = Program("t", ops=(Act(row=-5), Act(row=10**9)))
        resolved = resolve(prog, geometry=GEOMETRY, bounds="clamp")
        assert resolved.ops == (
            Act(row=0),
            Act(row=GEOMETRY.total_rows - 1),
        )

    def test_no_geometry_skips_bounds(self):
        prog = Program("t", ops=(Act(row=10**9),))
        assert resolve(prog).ops == (Act(row=10**9),)

    def test_unknown_bounds_policy_rejected(self):
        prog = Program("t", ops=())
        with pytest.raises(ValueError, match="bounds"):
            resolve(prog, bounds="wrap")

    def test_negative_loop_count_rejected(self):
        prog = Program("t", ops=(Loop(count=P("n"), body=(Pre(),)),))
        with pytest.raises(ValueError, match="loop count"):
            resolve(prog, bindings={"n": -1})

    def test_negative_nop_count_rejected(self):
        prog = Program("t", ops=(Nop(count=-2),))
        with pytest.raises(ValueError, match="nop count"):
            resolve(prog)


class TestCompile:
    def test_counts_are_analytic(self):
        prog = Program(
            "t",
            ops=(
                SyncRefresh(),
                Loop(
                    count=1000,
                    body=(Act(row=1), Pre(), Nop(count=3)),
                ),
            ),
        )
        compiled = compile_program(resolve(prog))
        assert compiled.activations == 1000
        assert compiled.precharges == 1000
        assert compiled.nops == 3000
        assert compiled.syncs == 1
        assert len(compiled) == 1000

    def test_events_interleave_syncs(self):
        prog = parse_program(
            "loop 2:\n    sync_refresh\n    act row=7\n    pre\n"
        )
        compiled = compile_program(resolve(prog))
        assert list(compiled.iter_events()) == [
            (EVENT_SYNC, 0),
            (EVENT_ACT, 7),
            (EVENT_SYNC, 0),
            (EVENT_ACT, 7),
        ]

    def test_rows_cached_and_streaming_agree(self):
        prog = parse_program("loop 5:\n    act row=3\n    pre\n")
        compiled = compile_program(resolve(prog))
        assert list(compiled.iter_rows()) == [3] * 5
        assert compiled.rows() == [3] * 5
        assert compiled.rows() is compiled.rows()  # cached


class TestExercisedWithin:
    def test_crossing_threshold_detected(self):
        prog = parse_program("loop 11:\n    act row=4\n")
        compiled = compile_program(resolve(prog))
        assert exercised_within(compiled, 10, None)
        assert not exercised_within(compiled, 11, None)

    def test_window_reset_prevents_crossing(self):
        prog = parse_program("loop 100:\n    act row=4\n")
        compiled = compile_program(resolve(prog))
        assert not exercised_within(compiled, 10, 10)
        assert exercised_within(compiled, 10, 100)

    def test_sync_event_resets_counts(self):
        prog = parse_program(
            "loop 4:\n    sync_refresh\n    loop 10:\n        act row=4\n"
        )
        compiled = compile_program(resolve(prog))
        # 10 acts per window never exceed a threshold of 10.
        assert not exercised_within(compiled, 10, None)
        assert exercised_within(compiled, 9, None)

    def test_accepts_plain_sequences(self):
        assert exercised_within([1] * 12, 10, None)
        assert not exercised_within([1] * 12, 10, 6)


_IDENTS = st.builds(
    str.__add__,
    st.sampled_from("abvxyz_AZ"),
    st.text(alphabet="abn_09XZ", max_size=6),
)
#: Mostly one non-whitespace token (what ``# program:`` carries),
#: sometimes a name the builder must refuse.
_NAMES = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from(["", "two words", " lead", "trail\n"]),
)
_EXPRS = st.one_of(
    st.integers(-64, 10**6),
    st.builds(lambda name, offset: P(name) + offset, _IDENTS,
              st.integers(-9, 9)),
)
_LEAVES = st.one_of(
    st.tuples(st.just("act"), _EXPRS, st.none() | _EXPRS),
    st.just(("pre",)),
    st.tuples(st.just("nop"), _EXPRS),
    st.just(("sync_refresh",)),
)
_STATEMENTS = st.lists(
    st.recursive(
        _LEAVES,
        lambda inner: st.tuples(
            st.just("loop"), _EXPRS, st.lists(inner, max_size=4)
        ),
        max_leaves=24,
    ),
    max_size=8,
)


def _replay(builder, statements):
    for statement in statements:
        kind = statement[0]
        if kind == "act":
            builder.act(statement[1], bank=statement[2])
        elif kind == "pre":
            builder.pre()
        elif kind == "nop":
            builder.nop(statement[1])
        elif kind == "sync_refresh":
            builder.sync_refresh()
        else:
            with builder.loop(statement[1]):
                _replay(builder, statement[2])


def _has_empty_loop(statements):
    return any(
        statement[0] == "loop"
        and (not statement[2] or _has_empty_loop(statement[2]))
        for statement in statements
    )


class TestRoundTrip:
    """Every program the builder or the fuzzer makes parses back equal;
    the builder refuses what the parser would reject."""

    @settings(max_examples=100, deadline=None)
    @given(
        name=_NAMES,
        defaults=st.dictionaries(
            _IDENTS, st.integers(-(10**6), 10**6), max_size=3
        ),
        statements=_STATEMENTS,
    )
    def test_builder_programs_round_trip(self, name, defaults, statements):
        def build():
            builder = ProgramBuilder(name)
            for key, value in defaults.items():
                builder.let(key, value)
            _replay(builder, statements)
            return builder.build()

        if not re.fullmatch(r"\S+", name) or _has_empty_loop(statements):
            with pytest.raises(ValueError):
                build()
            return
        program = build()
        assert parse_program(program.render()) == program

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), trh=st.sampled_from([125, 500, 4800]))
    def test_generated_fuzz_programs_round_trip(self, seed, trh):
        from repro.attacks.fuzz import generate_program
        from repro.attacks.registry import AttackContext

        program = generate_program(seed, AttackContext(trh=trh))
        assert parse_program(program.render()) == program
