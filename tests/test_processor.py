"""Step-loop tests: program parsing, gate and table ops on the joint state,
per-step cleanup metrics, and the resource accounting rules."""
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvhistory.dyadic import indicator_unit
from cvhistory.erasure import HybridState, apply_qubit_gate, hybrid_reduced_density, lift, unfold
from cvhistory.errors import DomainError, ResourceLimitError, ValidationError
from cvhistory.processor import (
    SINGLE_QUBIT_GATES,
    GateOp,
    ProcessorState,
    Program,
    ProgramStep,
    TableOp,
    init,
    init_from_program,
    load_program,
    parse_program,
    resource_report,
    run_program,
    run_step,
    _apply_gate,
    _apply_table,
)
from cvhistory import revcomp
from cvhistory.qubits import RegisterState, basis_state, purity
from cvhistory.revcomp import SubtractMode, build_reversible, named_table
from dense_reference import (
    ref_apply_basis_permutation,
    ref_apply_gate,
    ref_lift,
    ref_register_permutation,
    ref_run_step,
    table,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def and_step(clean=(2,)):
    return ProgramStep(
        op=TableOp(named_table("AND"), SubtractMode.XOR, (0, 1), (2,)),
        clean=tuple(clean),
    )


class TestInit:
    def test_layout_puts_ancillas_in_high_bits(self):
        ps = init(2, 1, basis_state(2, 3), cv_level=0)
        # joint index 0b011 = data |11>, ancilla |0>
        assert ps.hybrid.n_qubits == 3
        amps = table(ps.hybrid)
        assert amps[0b011, 0] == 1.0
        assert np.count_nonzero(amps) == 1

    def test_cv_level_sets_indicator(self):
        ps = init(1, 0, basis_state(1, 0), cv_level=2)
        assert ps.hybrid.row_wave(0) == indicator_unit(2)

    @pytest.mark.parametrize("level", [1.5, True])
    def test_cv_level_must_be_an_integer(self, level):
        with pytest.raises(DomainError, match="cv_level must be a nonnegative integer"):
            init(1, 0, basis_state(1, 0), cv_level=level)

    def test_start_builds_only_the_occupied_row(self, traced_peak):
        # the whole 2^7 x 2^14 product would take over 100 MiB; the state
        # keeps 16384 entries of one row
        prog = parse_program({"data": 6, "ancilla": 1, "cv_level": 14, "steps": []})
        with traced_peak() as traced:
            ps = init_from_program(prog, data_basis=5)
        assert traced.peak < 4 << 20
        joint = np.zeros(1 << 7, dtype=np.complex128)
        joint[5] = 1.0
        assert ps.hybrid == ref_lift(RegisterState(7, joint), indicator_unit(14))
        assert ps.hybrid.amps.size == 1 << 14

    def test_start_builds_no_joint_vector(self, traced_peak):
        # 1 data qubit and 21 ancillas: a 2^22-entry start vector would
        # take 64 MiB
        with traced_peak() as traced:
            ps = init(1, 21, RegisterState(1, [0.6, 0.8]), cv_level=1)
        assert traced.peak < 1 << 20
        assert ps.hybrid.n_qubits == 22
        assert ps.hybrid.rows.tolist() == [0, 0, 1, 1] and ps.hybrid.cells.tolist() == [0, 1, 0, 1]

    def test_wrong_data_width_rejected(self):
        with pytest.raises(ValidationError):
            init(2, 1, basis_state(1, 0))

    def test_negative_ancilla_rejected(self):
        with pytest.raises(DomainError, match="n_anc must be a nonnegative integer"):
            init(1, -1, basis_state(1, 0))

    @pytest.mark.parametrize(
        "n_data, n_anc, field",
        [(1, True, "n_anc"), (1, 1.5, "n_anc"), (True, 1, "n_data"), (1.0, 1, "n_data")],
        ids=["bool-ancilla", "float-ancilla", "bool-data", "float-data"],
    )
    def test_counts_must_be_integers(self, n_data, n_anc, field):
        # a bool count would build a True-wide state, a float one would
        # end in a TypeError inside the byte rule
        with pytest.raises(DomainError, match=f"{field} must be a nonnegative integer"):
            init(n_data, n_anc, basis_state(1, 0))


class TestGateOps:
    def lift_register(self, amps):
        n = int(np.log2(len(amps)))
        return lift(RegisterState(n, np.asarray(amps, dtype=complex)), indicator_unit(1))

    def run_gate(self, amps, op):
        h = self.lift_register(amps)
        ps = init(int(np.log2(len(amps))), 0, RegisterState(h.n_qubits, np.asarray(amps, dtype=complex)))
        out, _ = run_step(ps, ProgramStep(op=op, clean=()))
        return table(out.hybrid)[:, 0]

    def test_hadamard_on_qubit_zero(self):
        got = self.run_gate([1, 0], GateOp("H", (0,)))
        assert np.allclose(got, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_x_on_high_qubit(self):
        got = self.run_gate([1, 0, 0, 0], GateOp("X", (1,)))
        assert np.allclose(got, [0, 0, 1, 0], atol=0)

    def test_cnot_control_low(self):
        # |01> (q0=1, q1=0) -> |11>
        got = self.run_gate([0, 1, 0, 0], GateOp("CNOT", (0, 1)))
        assert np.allclose(got, [0, 0, 0, 1], atol=0)

    def test_cnot_control_unset_is_identity(self):
        got = self.run_gate([0, 0, 1, 0], GateOp("CNOT", (0, 1)))
        assert np.allclose(got, [0, 0, 1, 0], atol=0)

    def test_swap(self):
        got = self.run_gate([0, 1, 0, 0], GateOp("SWAP", (0, 1)))
        assert np.allclose(got, [0, 0, 1, 0], atol=0)

    def test_cz_phases_only_the_11_row(self):
        got = self.run_gate([0.5, 0.5, 0.5, 0.5], GateOp("CZ", (0, 1)))
        assert np.allclose(got, [0.5, 0.5, 0.5, -0.5], atol=0)

    def test_unknown_gate_rejected(self):
        ps = init(1, 0, basis_state(1, 0))
        with pytest.raises(ValidationError, match="unknown gate"):
            run_step(ps, ProgramStep(op=GateOp("FOO", (0,)), clean=()))

    def test_bad_target_count_rejected(self):
        ps = init(2, 0, basis_state(2, 0))
        with pytest.raises(ValidationError, match="takes one target"):
            run_step(ps, ProgramStep(op=GateOp("H", (0, 1)), clean=()))
        with pytest.raises(ValidationError, match="two distinct targets"):
            run_step(ps, ProgramStep(op=GateOp("CNOT", (1, 1)), clean=()))

    def test_target_out_of_range_rejected(self):
        ps = init(1, 0, basis_state(1, 0))
        with pytest.raises(ValidationError, match="outside"):
            run_step(ps, ProgramStep(op=GateOp("X", (3,)), clean=()))


def sparse_states(rng: np.random.Generator, n: int):
    """Seeded states of n qubits holding 1, 2, 9 and 40 entries (fewer
    where 2^n x 3 cells hold fewer) scattered over 3 cells, and the
    empty state."""
    for count in (1, 2, 9, 40):
        a = np.zeros((1 << n) * 3, dtype=np.complex128)
        at = rng.choice(a.size, size=min(count, a.size), replace=False)
        a[at] = rng.normal(size=at.size) + 1j * rng.normal(size=at.size)
        yield HybridState.from_table(n, 2, int(rng.integers(-2, 3)), a.reshape(-1, 3))
    yield HybridState(n, 2, [], [], [])


LIFT_TABLES = ["AND", "OR", "XOR", "ADDER(1)", "ADDER(2)", "ADDER(3)", "CONST(3,2,2)"]


class TestRegisterOpsOnStoredRows:
    """The two-qubit gates and table lifts act on the stored rows alone;
    they must match, bit for bit, the whole 2^n vectors of
    tests/dense_reference.py applied to the whole table."""

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_gates_match_dense_on_every_pair(self, n):
        rng = np.random.default_rng([23, n])
        for h in sparse_states(rng, n):
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    for name in ("CNOT", "SWAP", "CZ"):
                        got = _apply_gate(h, GateOp(name, (a, b)))
                        assert got == ref_apply_gate(h, name, a, b)

    @pytest.mark.parametrize("mode", list(SubtractMode))
    @pytest.mark.parametrize("name", LIFT_TABLES)
    def test_lifts_match_dense(self, name, mode):
        tt = named_table(name)
        width = tt.n_in + tt.m_out
        rng = np.random.default_rng([29, LIFT_TABLES.index(name)])
        for n in sorted({width, 12}):
            for _ in range(3):
                qs = [int(q) for q in rng.permutation(n)[:width]]
                op = TableOp(tt, mode, tuple(qs[: tt.n_in]), tuple(qs[tt.n_in :]))
                perm = ref_register_permutation(build_reversible(tt, mode), op.x_qubits, op.y_qubits, n)
                for h in sparse_states(rng, n):
                    assert _apply_table(h, op) == ref_apply_basis_permutation(h, perm)

    @staticmethod
    def wide_state() -> HybridState:
        # two entries on 22 qubits: every whole-register vector would
        # hold 2^22 values, 32 MiB as int64
        rows = [0b1011, (1 << 21) | (1 << 12) | 0b0110]
        return HybridState(22, 0, rows, [0, 0], [0.6, 0.8])

    @pytest.mark.parametrize(
        "op",
        [
            GateOp("CNOT", (1, 21)),
            GateOp("SWAP", (0, 20)),
            GateOp("CZ", (2, 21)),
            TableOp(named_table("ADDER(3)"), SubtractMode.MOD_SUB, (0, 1, 2, 12, 13, 21), (3, 4, 5, 20)),
        ],
        ids=["CNOT", "SWAP", "CZ", "ADDER3"],
    )
    def test_wide_register_op_allocates_per_entry(self, op, traced_peak):
        h = self.wide_state()
        if isinstance(op, TableOp):
            op.table.reversible(op.mode)  # the lift is the table's, not the step's
        apply = _apply_table if isinstance(op, TableOp) else _apply_gate
        with traced_peak() as traced:
            out = apply(h, op)
        assert traced.peak < 1 << 20
        assert out.amps.size == 2 and out.norm2() == h.norm2()


class TestLiftOnce:
    """Steps that share a table reference share one TruthTable, and it
    builds its lift once per mode, at the first step that applies it."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        built = []

        def counting(tt, mode):
            built.append((tt, mode))
            return build_reversible(tt, mode)

        monkeypatch.setattr(revcomp, "build_reversible", counting)
        return built

    def test_one_table_per_name_and_one_lift_per_mode(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        step = {"x_qubits": [0, 1, 2, 3, 4, 5], "y_qubits": [6, 7, 8, 9]}
        steps = [
            {"op": {"table": "ADDER(3)", "mode": ("xor", "mod_sub")[i % 2], **step}}
            for i in range(32)
        ]
        prog = parse_program({"data": 10, "ancilla": 1, "steps": steps})
        assert len({id(st.op.table) for st in prog.steps}) == 1
        assert built == []  # parsing builds no lift
        ps, _ = run_program(init_from_program(prog, data_basis=300), prog.steps)
        assert [mode for _, mode in built] == [SubtractMode.XOR, SubtractMode.MOD_SUB]
        # the same 32 steps, each on a table of its own
        fresh = [
            ProgramStep(TableOp(named_table("ADDER(3)"), st.op.mode, st.op.x_qubits, st.op.y_qubits), ())
            for st in prog.steps
        ]
        assert run_program(init_from_program(prog, data_basis=300), fresh)[0].hybrid == ps.hybrid
        assert len(built) == 2 + 32

    def test_files_share_and_inline_objects_do_not(self, tmp_path):
        (tmp_path / "t.json").write_text(json.dumps({"n_in": 2, "m_out": 1, "outputs": [0, 1, 1, 1]}))
        op = {"x_qubits": [0, 1], "y_qubits": [2]}
        inline = {"n_in": 2, "m_out": 1, "outputs": [0, 1, 1, 1]}
        steps = [
            {"op": {"table": {"file": "t.json"}, **op}},
            {"op": {"table": {"file": "t.json"}, **op}},
            {"op": {"table": dict(inline), **op}},
            {"op": {"table": dict(inline), **op}},
            {"op": {"table": "OR", **op}},
            {"op": {"table": "OR", **op}},
        ]
        prog = parse_program({"data": 2, "ancilla": 1, "steps": steps}, base_dir=str(tmp_path))
        tables = [st.op.table for st in prog.steps]
        assert tables[0] is tables[1] and tables[4] is tables[5]
        assert tables[2] is not tables[3]
        assert len({id(t) for t in tables}) == 4


class TestCleanValidation:
    def test_cleaning_data_qubit_rejected(self):
        ps = init(1, 1, basis_state(1, 0))
        with pytest.raises(ValidationError, match="not an ancilla"):
            run_step(ps, ProgramStep(op=GateOp("X", (1,)), clean=(0,)))

    def test_cleaning_out_of_range_rejected(self):
        ps = init(1, 1, basis_state(1, 0))
        with pytest.raises(ValidationError, match="not an ancilla"):
            run_step(ps, ProgramStep(op=GateOp("X", (1,)), clean=(5,)))

    def test_repeated_clean_refused_when_built(self):
        with pytest.raises(ValidationError, match="listed twice") as exc:
            ProgramStep(op=GateOp("X", (1,)), clean=(1, 1))
        assert exc.value.field == "clean[1]"


class TestHandBuiltQubitTypes:
    """A qubit of a hand-built op or clean list is an integer: a bool or a
    float is refused as bad input naming its field; numpy integers run."""

    @pytest.mark.parametrize(
        "step, field",
        [
            pytest.param(ProgramStep(GateOp("X", (1.5,)), ()), "op.targets[0]", id="float-target"),
            pytest.param(ProgramStep(GateOp("X", (1,)), (1.0,)), "clean[0]", id="float-clean"),
            pytest.param(ProgramStep(GateOp("CNOT", (0, True)), ()), "op.targets[1]", id="bool-target"),
        ],
    )
    def test_non_integer_qubit_refused(self, step, field):
        ps = init(1, 1, basis_state(1, 0))
        with pytest.raises(ValidationError, match="expected an integer qubit") as exc:
            run_step(ps, step)
        assert exc.value.field == field

    def test_numpy_integer_qubits_run(self):
        ps = init(1, 1, basis_state(1, 0))
        step = ProgramStep(GateOp("CNOT", (np.int64(0), np.int32(1))), (np.int64(1),))
        ps, m = run_step(ps, step)
        assert m.cv_level == 1 and m.ancilla_residual == 0.0


class TestHandBuiltProgramCounts:
    """A hand-built Program reads data, ancilla and cv_level as counts
    before its start rules run, as parse_program does."""

    @pytest.mark.parametrize("field", ["data", "ancilla", "cv_level"])
    @pytest.mark.parametrize("value", [1.5, True, -1, "1", None], ids=["1.5", "True", "-1", "str", "None"])
    def test_non_count_refused(self, field, value):
        counts = {"data": 1, "ancilla": 0, "cv_level": 0, field: value}
        with pytest.raises(DomainError, match=f"^{field} must be a nonnegative integer, got "):
            Program(steps=(), **counts)

    def test_numpy_counts_read_as_ints(self):
        prog = Program(np.int64(2), np.int32(1), np.uint8(3), ())
        assert (prog.data, prog.ancilla, prog.cv_level) == (2, 1, 3)
        assert all(type(n) is int for n in (prog.data, prog.ancilla, prog.cv_level))


def and_op(x_qubits, y_qubits):
    return TableOp(named_table("AND"), SubtractMode.XOR, x_qubits, y_qubits)


class TestHandBuiltTableRules:
    """A table step built by hand meets the rules a parsed one does; it is
    refused when the op or step is built, or when the step is run on a
    register of 2 data qubits and ancilla 2.  TestGateOps and
    TestCleanValidation hold the gate and clean rules."""

    @pytest.mark.parametrize(
        "make, match",
        [
            pytest.param(lambda: and_op((0,), (2,)), "x-qubits", id="table-width"),
            pytest.param(lambda: and_op((0, 1), (1,)), None, id="x-y-overlap"),
            pytest.param(lambda: and_op((0, 0), (2,)), None, id="x-repeated"),
            pytest.param(lambda: and_op((0, 1), (3,)), "outside", id="table-qubit-out-of-range"),
            pytest.param(lambda: "AND", "unknown op type", id="not-an-op"),
        ],
    )
    def test_rule_refused(self, make, match):
        ps = init(2, 1, basis_state(2, 0))
        with pytest.raises(ValidationError, match=match):
            run_step(ps, ProgramStep(op=make(), clean=()))


class TestAndDemo:
    """Repeatedly compute AND of data |11> into the ancilla, then erase it."""

    def test_ten_steps(self):
        ps = init(2, 1, basis_state(2, 3), cv_level=0)
        trace = []
        for k in range(1, 11):
            ps, m = run_step(ps, and_step())
            trace.append(m)
            assert m.ancilla_residual <= 1e-15
            assert m.cv_level == k
            assert abs(m.norm2 - 1.0) <= 1e-12
            assert m.data_purity == pytest.approx(1.0, abs=1e-12)
        assert ps.step_index == 10
        assert len(trace) == 10 and ps.data_purity == trace[-1].data_purity
        # deterministic branch: support shrinks toward 1 from below
        w = ps.hybrid.row_wave(0b011)
        assert w.level == 10
        assert w.offset == (1 << 10) - 1
        assert w.coeffs[0] == pytest.approx(2.0 ** 5.0, abs=1e-12)

    def test_history_level_grows_by_cleans_per_step(self):
        ps = init(2, 2, basis_state(2, 3), cv_level=1)
        two_anc = ProgramStep(
            op=TableOp(named_table("AND"), SubtractMode.XOR, (0, 1), (2,)),
            clean=(2, 3),
        )
        ps, m = run_step(ps, two_anc)
        assert m.cv_level == 3  # started at 1, erased two ancillas


class TestDecoherence:
    def test_cnot_on_plus_halves_purity(self):
        # Recording |+> into the history decoheres the data qubit fully:
        # the two branch waves land on disjoint half-intervals.
        plus = RegisterState(1, np.array([INV_SQRT2, INV_SQRT2], dtype=complex))
        ps = init(1, 1, plus, cv_level=0)
        step = ProgramStep(op=GateOp("CNOT", (0, 1)), clean=(1,))
        ps, m = run_step(ps, step)
        assert abs(m.data_purity - 0.5) <= 1e-12
        assert m.ancilla_residual <= 1e-15
        assert abs(m.norm2 - 1.0) <= 1e-12

    def test_basis_data_stays_pure(self):
        ps = init(1, 1, basis_state(1, 1), cv_level=0)
        step = ProgramStep(op=GateOp("CNOT", (0, 1)), clean=(1,))
        ps, m = run_step(ps, step)
        assert abs(m.data_purity - 1.0) <= 1e-12


def random_carry_program(rng, n_data, n_anc, n_steps=12):
    """Steps mixing single-qubit gates, CNOT/SWAP/CZ and table lifts whose
    qubits lie on the data only, on the ancillas only or across both,
    each cleaning a random subset of the ancillas."""
    data = list(range(n_data))
    anc = list(range(n_data, n_data + n_anc))
    steps = []
    for _ in range(n_steps):
        width = int(rng.integers(1, 4))  # a gate on 1 or 2 qubits, or a table on 3
        scopes = [scope for scope in (data, anc) if len(scope) >= width]
        if width > 1 and (not scopes or rng.random() < 0.5):
            # across both: at least one data and one ancilla qubit
            qs = [int(rng.choice(data)), int(rng.choice(anc))]
            rest = [q for q in data + anc if q not in qs]
            qs += [int(q) for q in rng.choice(rest, size=width - 2, replace=False)]
            rng.shuffle(qs)
        else:
            scope = scopes[int(rng.integers(len(scopes)))]
            qs = [int(q) for q in rng.choice(scope, size=width, replace=False)]
        if width == 1:
            op = GateOp(["X", "Y", "Z", "H", "S", "T"][int(rng.integers(6))], tuple(qs))
        elif width == 2:
            op = GateOp(["CNOT", "SWAP", "CZ"][int(rng.integers(3))], tuple(qs))
        else:
            table = named_table(["AND", "OR", "XOR"][int(rng.integers(3))])
            op = TableOp(table, SubtractMode.XOR, tuple(qs[:2]), (qs[2],))
        clean = tuple(q for q in anc if rng.random() < 0.4)
        steps.append(ProgramStep(op, clean))
    return steps


def unerase(h: HybridState, q: int) -> HybridState:
    """The inverse of erase on qubit q: undo the squeeze (level - 1,
    amplitudes / sqrt(2)), then unfold, which is its own inverse
    (T-1 F T+1 with F an involution)."""
    down = HybridState(h.n_qubits, h.level - 1, h.rows, h.cells, h.amps / np.sqrt(2.0))
    return unfold(down, q)


def undo_op(h: HybridState, op) -> HybridState:
    """The inverse of a step's op: S and T invert to S^dagger and
    T^dagger; every other gate and every table lift is an involution."""
    if isinstance(op, GateOp) and op.name in ("S", "T"):
        return apply_qubit_gate(h, op.targets[0], SINGLE_QUBIT_GATES[op.name].conj().T)
    if isinstance(op, GateOp):
        return _apply_gate(h, op)
    return _apply_table(h, op)


def on_cells(h: HybridState, lo: int, hi: int) -> np.ndarray:
    """h as a dense 2^n x (hi - lo) table over cells lo .. hi - 1."""
    out = np.zeros((1 << h.n_qubits, hi - lo), dtype=np.complex128)
    out[h.rows, h.cells - lo] = h.amps
    return out


class TestReversal:
    """A program run forward and then undone step by step in reverse gives
    back its initial state: the history mode keeps every erased bit
    coherently, so the whole run is unitary.  An entangled cross-check of
    the erase pipeline that does not go through tensor_oracle."""

    def test_forward_then_backward_restores_start(self):
        erased = 0
        for seed in range(12):
            rng = np.random.default_rng([41, seed])
            n_data, n_anc = 2 + seed % 2, 1 + (seed // 2) % 2
            amps = rng.normal(size=1 << n_data) + 1j * rng.normal(size=1 << n_data)
            ps = init(n_data, n_anc, RegisterState(n_data, amps / np.linalg.norm(amps)))
            start = ps.hybrid
            steps = random_carry_program(rng, n_data, n_anc)
            ps, _ = run_program(ps, steps)
            h = ps.hybrid
            for step in reversed(steps):
                for q in sorted(step.clean, reverse=True):
                    h = unerase(h, q)
                    erased += 1
                h = undo_op(h, step.op)
            assert h.level == start.level
            lo = min(h.offset, start.offset)
            hi = max(h.offset + h.n_cells, start.offset + start.n_cells)
            diff = on_cells(h, lo, hi) - on_cells(start, lo, hi)
            rel = np.linalg.norm(diff) / np.linalg.norm(start.amps)
            assert rel <= 1e-15, (seed, rel)
        assert erased >= 50


class TestPurityCarry:
    """data_purity is recomputed only after an op that touches both data
    and ancilla qubits, and carried otherwise (exact by invariance)."""

    def test_matches_fresh_purity(self):
        carried = changed = 0
        for seed in range(12):
            rng = np.random.default_rng([41, seed])
            n_data, n_anc = 2 + seed % 2, 1 + (seed // 2) % 2
            amps = rng.normal(size=1 << n_data) + 1j * rng.normal(size=1 << n_data)
            ps = init(n_data, n_anc, RegisterState(n_data, amps / np.linalg.norm(amps)))
            for step in random_carry_program(rng, n_data, n_anc):
                prev = ps.data_purity
                ps, m = run_step(ps, step)
                fresh = purity(hybrid_reduced_density(ps.hybrid, set(range(n_data))))
                assert abs(m.data_purity - fresh) <= 1e-12, (seed, step)
                op = step.op
                qs = op.targets if isinstance(op, GateOp) else op.x_qubits + op.y_qubits
                local = all(q < n_data for q in qs) or all(q >= n_data for q in qs)
                if prev is not None and local:
                    assert m.data_purity == prev, (seed, step)
                    carried += 1
                elif prev is not None and abs(fresh - prev) > 1e-6:
                    changed += 1
        # both paths were taken, and mixed ops moved the purity
        assert carried >= 50 and changed >= 10

    def test_hand_built_state_recomputes(self):
        # a state built by hand has no history to carry from: data q0 is
        # entangled with the ancilla, so its purity is 1/2 even after a
        # data-only gate
        bell = RegisterState(2, [INV_SQRT2, 0, 0, INV_SQRT2])
        ps = ProcessorState(lift(bell, indicator_unit(0)), 1, 1, step_index=0)
        ps, m = run_step(ps, ProgramStep(op=GateOp("H", (0,)), clean=()))
        assert abs(m.data_purity - 0.5) <= 1e-12


class TestDataDensityOnSupport:
    def test_recompute_builds_no_dense_density(self, traced_peak):
        # the 2^10 x 2^10 data density would take 16 MiB; data q9 in |+>
        # occupies two of its rows, so the purity reads a 2 x 2 block
        amps = np.zeros(1 << 10, dtype=np.complex128)
        amps[[5, 5 | 1 << 9]] = INV_SQRT2
        ps = init(10, 1, RegisterState(10, amps))
        step = ProgramStep(op=GateOp("CNOT", (9, 10)), clean=(10,))
        with traced_peak() as traced:
            ps, m = run_step(ps, step)
        assert abs(m.data_purity - 0.5) <= 1e-12
        assert traced.peak < 1 << 20


# the library tables at most 7 qubits wide, CONST up to 2 in and 2 out:
# (name, n_in + m_out)
ORACLE_TABLES = [("AND", 3), ("OR", 3), ("XOR", 3), ("ADDER(1)", 4), ("ADDER(2)", 7)] + [
    (f"CONST({n_in},{m_out},{v})", n_in + m_out)
    for n_in in (1, 2)
    for m_out in (1, 2)
    for v in range(1 << m_out)
]
# at most this many cleans per program: the table stays 2^8 x 2^8
ORACLE_CLEANS = 6


@st.composite
def oracle_programs(draw):
    """(data, ancilla, cv_level, data amplitudes, steps): data 1-4,
    ancilla 1-4, cv_level 0-2, up to 8 steps over every gate, the
    library tables of ORACLE_TABLES in both modes and random clean lists."""
    n_data, n_anc, cv_level = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 2))
    n_total = n_data + n_anc
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = (rng.normal(size=1 << n_data) + 1j * rng.normal(size=1 << n_data)) * (rng.random(1 << n_data) < 0.7)
    amps[int(rng.integers(1 << n_data))] += 1.0
    tables = [(name, w) for name, w in ORACLE_TABLES if w <= n_total]
    steps, cleans = [], 0
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["one", "two", "table"]))
        if kind == "table":
            name, width = draw(st.sampled_from(tables))
            qs = draw(st.permutations(range(n_total)))[:width]
            tt = named_table(name)
            op = TableOp(tt, draw(st.sampled_from(list(SubtractMode))), tuple(qs[: tt.n_in]), tuple(qs[tt.n_in :]))
        else:
            names = list(SINGLE_QUBIT_GATES) if kind == "one" else ["CNOT", "SWAP", "CZ"]
            qs = draw(st.permutations(range(n_total)))[: 1 if kind == "one" else 2]
            op = GateOp(draw(st.sampled_from(names)), tuple(qs))
        anc = range(n_data, n_total)
        clean = draw(st.lists(st.sampled_from(anc), unique=True, max_size=ORACLE_CLEANS - cleans))
        cleans += len(clean)
        steps.append(ProgramStep(op, tuple(clean)))
    return n_data, n_anc, cv_level, amps / np.linalg.norm(amps), steps


class TestWholeProgramOracle:
    """Whole random programs through processor.run_step and through
    tests/dense_reference.py's ref_run_step: every step's state bit for
    bit, and every metric exactly except data_purity, which the processor
    carries across ops that leave it unchanged and computes in another
    order."""

    @given(oracle_programs())
    @settings(max_examples=100, deadline=None)
    @example(  # a coupling op, then data-only and ancilla-only ops: the carry
        (2, 1, 1, np.array([0.6, 0.0, 0.0, 0.8]), [
            ProgramStep(GateOp("H", (1,)), ()),
            ProgramStep(GateOp("CNOT", (0, 2)), (2,)),
            ProgramStep(GateOp("H", (0,)), ()),
            ProgramStep(GateOp("X", (2,)), (2,)),
            ProgramStep(TableOp(named_table("AND"), SubtractMode.XOR, (0, 1), (2,)), (2,)),
        ])
    )
    def test_steps_match_dense_reference(self, program):
        n_data, n_anc, cv_level, amps, steps = program
        ps = init(n_data, n_anc, RegisterState(n_data, amps), cv_level=cv_level)
        wide = np.zeros(1 << (n_data + n_anc), dtype=np.complex128)
        wide[: amps.size] = amps
        ref = ref_lift(RegisterState(n_data + n_anc, wide), indicator_unit(cv_level))
        assert ps.hybrid == ref
        for i, step in enumerate(steps):
            ps, got = run_step(ps, step)
            ref, want = ref_run_step(ref, step, n_data)
            assert ps.hybrid == ref, i
            assert abs(got.data_purity - want.data_purity) <= 1e-14, i
            assert got == dataclasses.replace(want, data_purity=got.data_purity), i


class TestRunProgram:
    def test_empty_program_is_identity(self):
        ps = init(2, 1, basis_state(2, 2), cv_level=3)
        final, trace = run_program(ps, [])
        assert trace == []
        assert final.hybrid == ps.hybrid
        assert final.step_index == 0

    def test_trace_matches_history(self):
        ps = init(2, 1, basis_state(2, 3))
        final, trace = run_program(ps, [and_step(), and_step(), and_step()])
        assert len(trace) == 3
        assert final.data_purity == trace[-1].data_purity
        assert [m.cv_level for m in trace] == [1, 2, 3]

    def test_residual_contract_enforced(self):
        # Erasing an untouched zero ancilla is fine; force a nonzero check by
        # hand: erase() itself guarantees exact zeros, so the contract check
        # passes on every valid path.
        ps = init(1, 1, basis_state(1, 0))
        ps, m = run_step(ps, ProgramStep(op=GateOp("X", (1,)), clean=(1,)))
        assert m.ancilla_residual == 0.0


class TestResourceReport:
    def test_single_clean_per_step(self):
        steps = [and_step() for _ in range(10)]
        rep = resource_report(steps, cv_level=0)
        assert rep.plain_reversible_ancillas == 10
        assert rep.cv_scheme_qubits == 1
        assert rep.cv_final_level == 10
        assert rep.joint_cells == 1 << 10

    def test_mixed_cleans(self):
        steps = [
            ProgramStep(op=GateOp("X", (2,)), clean=(2,)),
            ProgramStep(op=GateOp("X", (2,)), clean=(2, 3)),
            ProgramStep(op=GateOp("H", (0,)), clean=()),
            ProgramStep(op=GateOp("X", (3,)), clean=(3,)),
        ]
        rep = resource_report(steps, cv_level=2)
        assert rep.plain_reversible_ancillas == 4
        assert rep.cv_scheme_qubits == 2
        assert rep.cv_final_level == 6
        assert rep.joint_cells == 64

    def test_refuses_what_the_processor_refuses(self):
        x_clean = ProgramStep(op=GateOp("X", (1,)), clean=(1,))
        # the max level, 53, is the only level rule: 53 cleans run, and the
        # erase from level 53 would squeeze past it, in both
        assert resource_report([x_clean] * 53).cv_final_level == 53
        ps, _ = run_program(init(1, 1, basis_state(1, 0)), [x_clean] * 53)
        assert ps.hybrid.level == 53 and ps.hybrid.amps.size == 1
        with pytest.raises(ResourceLimitError, match="^cv_level: 0 plus 54 cleans reaches level 54"):
            resource_report([x_clean] * 54)
        with pytest.raises(ResourceLimitError, match="squeeze would exceed max level 53"):
            run_step(ps, x_clean)
        # the cleans count from the starting level
        assert resource_report([x_clean] * 3, cv_level=50).cv_final_level == 53
        with pytest.raises(ResourceLimitError, match="^cv_level: 53 plus 1 cleans reaches level 54"):
            resource_report([x_clean], cv_level=53)

    def test_empty_program(self):
        rep = resource_report([], cv_level=5)
        assert rep.plain_reversible_ancillas == 0
        assert rep.cv_scheme_qubits == 0
        assert rep.cv_final_level == 5


class TestParseProgram:
    def good(self):
        return {
            "data": 2,
            "ancilla": 1,
            "cv_level": 0,
            "steps": [
                {
                    "op": {
                        "table": "AND",
                        "mode": "xor",
                        "x_qubits": [0, 1],
                        "y_qubits": [2],
                    },
                    "clean": [2],
                }
            ],
        }

    def test_roundtrip(self):
        prog = parse_program(self.good())
        assert prog.data == 2 and prog.ancilla == 1
        assert len(prog.steps) == 1
        step = prog.steps[0]
        assert isinstance(step.op, TableOp)
        assert step.op.x_qubits == (0, 1)
        assert step.clean == (2,)

    def test_gate_step(self):
        obj = self.good()
        obj["steps"].append({"op": {"gate": "cnot", "targets": [0, 2]}, "clean": []})
        prog = parse_program(obj)
        assert isinstance(prog.steps[1].op, GateOp)
        assert prog.steps[1].op.name == "CNOT"

    @pytest.mark.parametrize(
        "gate, targets, message",
        [
            pytest.param("CNOT", [0], "gate CNOT takes two distinct targets, got (0,)", id="CNOT-0"),
            pytest.param(
                "CNOT", [1, 1], "gate CNOT takes two distinct targets, got (1, 1)", id="CNOT-1-1"
            ),
            pytest.param("X", [0, 1], "gate X takes one target, got (0, 1)", id="X-0-1"),
        ],
    )
    def test_gate_shape_names_path(self, gate, targets, message):
        # refused at parse time, naming the field; a hand-built op meets the
        # same rule, with the same reason, when it is built
        obj = self.good()
        obj["steps"].append({"op": {"gate": gate, "targets": targets}})
        with pytest.raises(ValidationError) as exc:
            parse_program(obj)
        assert str(exc.value) == f"steps[1].op.targets: {message}"
        h = lift(basis_state(3, 0), indicator_unit(0))
        with pytest.raises(ValidationError) as exc:
            _apply_gate(h, GateOp(gate, tuple(targets)))
        assert str(exc.value) == message

    def test_clean_data_qubit_names_path(self):
        obj = self.good()
        obj["steps"][0]["clean"] = [0]
        with pytest.raises(ValidationError, match=r"steps\[0\].clean\[0\]"):
            parse_program(obj)

    def test_unknown_gate_names_path(self):
        obj = self.good()
        obj["steps"][0]["op"] = {"gate": "NOPE", "targets": [0]}
        with pytest.raises(ValidationError, match=r"steps\[0\].op.gate"):
            parse_program(obj)

    def test_missing_steps_rejected(self):
        with pytest.raises(ValidationError, match="steps"):
            parse_program({"data": 1, "ancilla": 0})

    def test_bad_mode_rejected(self):
        obj = self.good()
        obj["steps"][0]["op"]["mode"] = "plus"
        with pytest.raises(ValidationError, match="mode"):
            parse_program(obj)

    def test_field_width_mismatch_rejected(self):
        obj = self.good()
        obj["steps"][0]["op"]["x_qubits"] = [0]
        with pytest.raises(ValidationError, match="x-qubits"):
            parse_program(obj)

    def test_qubit_out_of_range_names_path(self):
        obj = self.good()
        obj["steps"][0]["op"]["y_qubits"] = [7]
        with pytest.raises(ValidationError, match=r"y_qubits\[0\]"):
            parse_program(obj)

    def test_bool_is_not_an_int(self):
        obj = self.good()
        obj["data"] = True
        with pytest.raises(ValidationError, match="data"):
            parse_program(obj)

    def test_inline_table(self):
        obj = self.good()
        obj["steps"][0]["op"]["table"] = {"n_in": 2, "m_out": 1, "outputs": [0, 0, 0, 1]}
        prog = parse_program(obj)
        assert prog.steps[0].op.table(3) == 1

    def test_table_file_reference(self, tmp_path):
        tt_path = tmp_path / "tt.json"
        tt_path.write_text(json.dumps({"n_in": 1, "m_out": 1, "outputs": [1, 0]}))
        obj = self.good()
        obj["data"] = 1
        obj["steps"][0]["clean"] = [1]
        obj["steps"][0]["op"].update(
            {"table": {"file": "tt.json"}, "x_qubits": [0], "y_qubits": [1]}
        )
        prog_path = tmp_path / "prog.json"
        prog_path.write_text(json.dumps(obj))
        prog = load_program(str(prog_path))
        assert prog.steps[0].op.table(0) == 1

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "prog.json"
        p.write_text("{nope")
        with pytest.raises(ValidationError, match="JSON"):
            load_program(str(p))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"data": 13}, "data: a 2^13 x 2^13 density matrix"),
            ({"ancilla": 24}, "data + ancilla + cv_level: a joint table of 2^25 rows"),
            ({"cv_level": 25}, "cv_level: the level-25 indicator"),
            ({"cv_level": 54}, "cv_level: 54 plus 0 cleans reaches level 54"),
        ],
        ids=["data-density", "joint-table", "indicator", "max-level"],
    )
    def test_start_rules_run_when_built(self, change, message):
        # parsed or replaced, a Program past a start rule is never built
        fits = {"data": 1, "ancilla": 0, "steps": [{"op": {"gate": "X", "targets": [0]}}]}
        with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}"):
            parse_program(dict(fits, **change))
        with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}"):
            dataclasses.replace(parse_program(fits), **change)

    def test_init_from_program(self):
        prog = parse_program(self.good())
        ps = init_from_program(prog, data_basis=3)
        assert table(ps.hybrid)[0b011, 0] == 1.0
        assert ps.data_count == 2 and ps.anc_count == 1


class TestEntangledHistoryStaysSparse:
    def test_sixteen_cleans_store_one_entry_per_branch(self):
        # three data qubits in uniform superposition; each of 16 AND/OR
        # lifts records 0 on branch x = 0 and 1 on branch x = 7, so the
        # occupied hull is all of [0, 2^16) while each of the 8 branches
        # holds one cell
        steps = [ProgramStep(op=GateOp("H", (q,)), clean=()) for q in range(3)]
        for i in range(16):
            x_qubits = ((0, 1), (1, 2), (0, 2))[i % 3]
            op = TableOp(named_table(("AND", "OR")[i % 2]), SubtractMode.XOR, x_qubits, (3,))
            steps.append(ProgramStep(op=op, clean=(3,)))
        ps, trace = run_program(init(3, 1, basis_state(3, 0)), steps)
        assert ps.hybrid.level == 16
        assert ps.hybrid.amps.size == 8
        assert trace[-1].joint_cells == ps.hybrid.n_cells == 1 << 16
        assert trace[-1].entries == 8
        w = ps.hybrid.row_wave(0)  # branch 0 recorded all zeros: cell 0
        assert w.offset == 0 and w.n_cells == 1
        assert abs(w.coeffs[0] - 2.0**8 / np.sqrt(8)) <= 1e-12 * 2.0**8


class TestMetricsFields:
    def test_joint_cells_tracks_wave(self):
        ps = init(1, 1, basis_state(1, 0), cv_level=2)
        ps, m = run_step(ps, ProgramStep(op=GateOp("X", (1,)), clean=(1,)))
        assert m.joint_cells == ps.hybrid.n_cells
        assert m.entries == ps.hybrid.amps.size == 4  # the level-2 indicator's cells
        assert m.cv_level == 3
