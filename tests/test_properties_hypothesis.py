"""Property-based tests (hypothesis) on the library's core invariants.

The central property: for ANY march test and ANY memory geometry, all
three controller architectures issue exactly the golden operation stream
(microcode and hardwired always; programmable-FSM whenever the test is
SM-composable).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.controller import ControllerCapabilities
from repro.core.hardwired import HardwiredBistController
from repro.core.microcode import MicrocodeBistController
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import ConditionOp, INSTRUCTION_BITS
from repro.core.progfsm import ProgrammableFsmBistController
from repro.core.progfsm.compiler import CompileError
from repro.core.progfsm.instruction import FsmInstruction
from repro.area.logic_min import minimize_sop, prime_implicants
from repro.march.backgrounds import apply_polarity, data_backgrounds
from repro.march.element import AddressOrder, MarchElement, OpKind, Operation, Pause
from repro.march.notation import format_test, parse_test
from repro.march.properties import symmetric_split
from repro.march.simulator import expand
from repro.march.test import MarchTest

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

operations = st.builds(
    Operation,
    st.sampled_from([OpKind.READ, OpKind.WRITE]),
    st.integers(min_value=0, max_value=1),
)

orders = st.sampled_from(list(AddressOrder))

elements = st.builds(
    MarchElement,
    orders,
    st.lists(operations, min_size=1, max_size=5),
)

pauses = st.builds(Pause, st.sampled_from([256, 512, 1024]))

march_tests = st.builds(
    MarchTest,
    st.just("generated"),
    st.lists(st.one_of(elements, elements, elements, pauses), min_size=1,
             max_size=7),
)

geometries = st.tuples(
    st.integers(min_value=1, max_value=6),     # n_words
    st.sampled_from([1, 2, 4]),                # width
    st.integers(min_value=1, max_value=2),     # ports
)

# ---------------------------------------------------------------------------
# Notation round-trip.
# ---------------------------------------------------------------------------


@given(march_tests)
def test_notation_round_trip(test):
    assert parse_test(format_test(test)).items == test.items


# ---------------------------------------------------------------------------
# Controller equivalence (the keystone property).
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(march_tests, geometries)
def test_microcode_matches_golden(test, geometry):
    n_words, width, ports = geometry
    caps = ControllerCapabilities(n_words=n_words, width=width, ports=ports)
    controller = MicrocodeBistController(test, caps)
    assert list(controller.operations()) == list(
        expand(test, n_words, width=width, ports=ports)
    )


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(march_tests, geometries)
def test_microcode_uncompressed_matches_golden(test, geometry):
    n_words, width, ports = geometry
    caps = ControllerCapabilities(n_words=n_words, width=width, ports=ports)
    controller = MicrocodeBistController(test, caps, compress=False)
    assert list(controller.operations()) == list(
        expand(test, n_words, width=width, ports=ports)
    )


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(march_tests, geometries)
def test_hardwired_matches_golden(test, geometry):
    n_words, width, ports = geometry
    caps = ControllerCapabilities(n_words=n_words, width=width, ports=ports)
    controller = HardwiredBistController(test, caps)
    assert list(controller.operations()) == list(
        expand(test, n_words, width=width, ports=ports)
    )


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(march_tests, geometries)
def test_progfsm_matches_golden_when_compilable(test, geometry):
    n_words, width, ports = geometry
    caps = ControllerCapabilities(n_words=n_words, width=width, ports=ports)
    try:
        controller = ProgrammableFsmBistController(test, caps, buffer_rows=16)
    except CompileError:
        return  # outside the SM library: the documented boundary
    assert list(controller.operations()) == list(
        expand(test, n_words, width=width, ports=ports)
    )


# ---------------------------------------------------------------------------
# Symmetric split soundness.
# ---------------------------------------------------------------------------


@given(march_tests)
def test_symmetric_split_reconstructs(test):
    split = symmetric_split(test)
    if split is None:
        return
    rebuilt = (
        list(split.prefix)
        + list(split.body)
        + [split.aux.apply(e) for e in split.body]
    )
    originals = list(test.elements)[: len(rebuilt)]
    assert len(rebuilt) == len(originals)
    for got, want in zip(rebuilt, originals):
        assert got.ops == want.ops
        assert got.order.resolve() is want.order.resolve()


# ---------------------------------------------------------------------------
# Encodings.
# ---------------------------------------------------------------------------

micro_instructions = st.one_of(
    st.builds(
        MicroInstruction,
        addr_inc=st.booleans(),
        addr_down=st.booleans(),
        data_inc=st.booleans(),
        data_inv=st.booleans(),
        compare=st.booleans(),
        read_en=st.booleans(),
        write_en=st.just(False),
        cond=st.sampled_from([ConditionOp.NOP, ConditionOp.LOOP]),
    ),
    st.builds(
        MicroInstruction,
        cond=st.just(ConditionOp.HOLD),
        hold_exponent=st.integers(min_value=0, max_value=127),
    ),
)


@given(micro_instructions)
def test_micro_instruction_roundtrip(instr):
    word = instr.encode()
    assert 0 <= word < (1 << INSTRUCTION_BITS)
    assert MicroInstruction.decode(word) == instr


@given(st.integers(min_value=0, max_value=255))
def test_fsm_instruction_roundtrip(word):
    assert FsmInstruction.decode(word).encode() == word


# ---------------------------------------------------------------------------
# Backgrounds.
# ---------------------------------------------------------------------------


@given(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
def test_background_count_property(width):
    patterns = data_backgrounds(width)
    assert len(patterns) == width.bit_length()
    assert len(set(patterns)) == len(patterns)
    for pattern in patterns:
        assert 0 <= pattern < (1 << width)


@given(st.sampled_from([1, 2, 4, 8, 16]), st.integers(0, 1))
def test_apply_polarity_involution(width, polarity):
    for pattern in data_backgrounds(width):
        once = apply_polarity(pattern, polarity, width)
        assert apply_polarity(once, polarity, width) == (
            pattern if polarity == 0 else pattern
        ) or polarity == 0
        # complementing twice restores:
        assert apply_polarity(apply_polarity(pattern, 1, width), 1, width) == pattern


# ---------------------------------------------------------------------------
# Logic minimisation equivalence.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_minimize_sop_equivalence(n_vars, data):
    space = 1 << n_vars
    ones = data.draw(
        st.lists(st.integers(0, space - 1), unique=True, max_size=space)
    )
    remaining = [m for m in range(space) if m not in set(ones)]
    dont_cares = data.draw(
        st.lists(st.sampled_from(remaining), unique=True, max_size=len(remaining))
        if remaining
        else st.just([])
    )
    cover = minimize_sop(n_vars, ones, dont_cares)
    dc = set(dont_cares)
    for minterm in range(space):
        covered = any(
            (minterm & care) == (value & care) for value, care in cover
        )
        if minterm in set(ones):
            assert covered
        elif minterm not in dc:
            assert not covered


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _brute_force_primes(n_vars, on_set):
    """Prime implicants by walking all 3ⁿ cubes: a cube is prime when it
    lies inside the on-set and no cube with one literal fewer does."""
    full = (1 << n_vars) - 1

    def inside(value, care):
        return all(value | sub in on_set for sub in _submasks(full & ~care))

    return sorted(
        (value, care)
        for care in range(1 << n_vars)
        for value in _submasks(care)
        if inside(value, care)
        and not any(
            inside(value & ~(1 << i), care & ~(1 << i))
            for i in range(n_vars)
            if care >> i & 1
        )
    )


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=8), st.data())
def test_prime_implicants_match_brute_force(n_vars, data):
    space = 1 << n_vars
    ones_mask = data.draw(st.integers(0, (1 << space) - 1))
    dc_mask = data.draw(st.integers(0, (1 << space) - 1))
    ones = [m for m in range(space) if ones_mask >> m & 1]
    dont_cares = [m for m in range(space) if dc_mask >> m & 1]
    # List equality, order included: the greedy cover depends on it.
    assert prime_implicants(n_vars, ones, dont_cares) == _brute_force_primes(
        n_vars, set(ones) | set(dont_cares)
    )


# ---------------------------------------------------------------------------
# Golden stream invariants.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(march_tests, geometries)
def test_expand_stream_wellformed(test, geometry):
    n_words, width, ports = geometry
    mask = (1 << width) - 1
    backgrounds = len(data_backgrounds(width))
    ops = list(expand(test, n_words, width=width, ports=ports))
    expected_count = ports * backgrounds * (
        test.operation_count * n_words + len(test.pauses)
    )
    assert len(ops) == expected_count
    for op in ops:
        assert 0 <= op.port < ports
        assert 0 <= op.address < n_words
        if op.is_write:
            assert 0 <= op.value <= mask
        elif op.is_read:
            assert 0 <= op.expected <= mask


# ---------------------------------------------------------------------------
# Field-programming round-trips.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(march_tests)
def test_assemble_decompile_roundtrip(test):
    """decompile(assemble(t)) expands to t's exact stream."""
    from repro.core.microcode.assembler import AssemblyError, assemble
    from repro.core.microcode.decompiler import decompile

    caps = ControllerCapabilities(n_words=4)
    try:
        program = assemble(test, caps)
    except AssemblyError:
        return  # non-power-of-two pause durations are rejected by design
    recovered = decompile(program.instructions)
    assert list(expand(recovered, 4)) == list(expand(test, 4))


@settings(deadline=None, max_examples=40)
@given(march_tests)
def test_dump_load_program_roundtrip(test):
    from repro.core.microcode.assembler import AssemblyError, assemble
    from repro.core.programming import dump_program, load_program

    caps = ControllerCapabilities(n_words=4, width=2, ports=2)
    try:
        program = assemble(test, caps)
    except AssemblyError:
        return
    loaded = load_program(dump_program(program))
    assert [i.encode() for i in loaded.instructions] == [
        i.encode() for i in program.instructions
    ]


@settings(deadline=None, max_examples=30)
@given(march_tests)
def test_storage_scan_roundtrip(test):
    from repro.core.microcode.assembler import AssemblyError, assemble
    from repro.core.microcode.storage import StorageUnit

    caps = ControllerCapabilities(n_words=4)
    try:
        program = assemble(test, caps)
    except AssemblyError:
        return
    storage = StorageUnit(rows=max(2, len(program.instructions)))
    storage.load(program.instructions)
    image = storage.scan_dump()
    other = StorageUnit(rows=storage.rows)
    other.scan_load(image)
    assert other.scan_dump() == image


# ---------------------------------------------------------------------------
# Concurrent expansion and in-field session invariants.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.too_slow])
@given(march_tests, st.integers(min_value=1, max_value=6),
       st.sampled_from([1, 2, 4]))
def test_concurrent_single_port_equals_sequential(test, n_words, width):
    """With one port there is no companion: the concurrent cycle stream
    degenerates op-for-op to the sequential golden expansion."""
    from repro.march.concurrent import expand_concurrent

    cycles = list(expand_concurrent(test, n_words, width=width, ports=1))
    sequential = list(expand(test, n_words, width=width, ports=1))
    assert [cycle.ops for cycle in cycles] == [(op,) for op in sequential]


@settings(deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.too_slow])
@given(march_tests, geometries)
def test_concurrent_base_ops_are_the_sequential_stream(test, geometry):
    """The base-port operation of concurrent cycle *i* is exactly
    operation *i* of the sequential stream, on any geometry."""
    from repro.march.concurrent import cycle_count, expand_concurrent

    n_words, width, ports = geometry
    cycles = list(
        expand_concurrent(test, n_words, width=width, ports=ports)
    )
    sequential = list(expand(test, n_words, width=width, ports=ports))
    assert len(cycles) == len(sequential)
    assert len(cycles) == cycle_count(test, n_words, width, ports)
    for cycle, golden in zip(cycles, sequential):
        base_ops = [op for op in cycle if op.port == golden.port]
        assert base_ops == [golden]


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**32), geometries)
def test_infield_session_preserves_arbitrary_user_data(seed, geometry):
    """Identity (h), property form: on ANY geometry and ANY session
    seed (i.e. arbitrary seeded user data and traffic), the fault-free
    in-field session raises no events and every checkpoint finds the
    user's data bit-identical to the traffic-only shadow."""
    from repro.conformance.infield import (
        build_infield_plan,
        run_infield_session,
    )
    from repro.memory.sram import Sram

    n_words, width, ports = geometry
    caps = ControllerCapabilities(n_words=n_words, width=width, ports=ports)
    plan = build_infield_plan(caps, seed=seed)
    result = run_infield_session(
        plan, Sram(n_words, width=width, ports=ports)
    )
    assert result.events == []
    assert result.user_data_preserved
