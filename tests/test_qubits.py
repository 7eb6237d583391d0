"""Register-state construction, gates, permutations, and partial traces."""
import numpy as np
import pytest

from cvhistory.errors import DomainError, ValidationError
from cvhistory.qubits import (
    DensityMatrix,
    H,
    RegisterState,
    X,
    apply_permutation,
    apply_single_qubit,
    basis_state,
    purity,
    trace_out,
)
from dense_reference import ref_trace_out

SQRT1_2 = 1.0 / np.sqrt(2.0)

# trace_out inputs: (qubits, keep, cells, occupied kept indices, None for all)
SUPPORT_CASES = {
    "zero-state": (3, {0, 1}, 1, []),
    "one-index": (4, {1, 3}, 2, [2]),
    "partial": (4, {0, 1, 2}, 3, [0, 3, 5, 6]),
    "full": (3, {0, 1, 2}, 1, None),
    "gapped-keep": (5, {0, 2, 4}, 2, [1, 4, 7]),
}
# blocks on support [1, 4, 6] of dim 8 that validate must refuse
BAD_BLOCKS = {"non-hermitian": "not Hermitian", "negative-eigenvalue": "negative eigenvalue"}


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, n: int) -> RegisterState:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return RegisterState(n, v / np.linalg.norm(v))


class TestBasisState:
    def test_single_qubit_zero(self):
        assert np.array_equal(basis_state(1, 0).amps, [1, 0])

    def test_two_qubit_three(self):
        assert np.array_equal(basis_state(2, 3).amps, [0, 0, 0, 1])

    def test_three_qubit_five(self):
        amps = basis_state(3, 5).amps
        assert amps[5] == 1 and np.count_nonzero(amps) == 1 and amps.size == 8

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            basis_state(2, 4)
        with pytest.raises(DomainError):
            basis_state(2, -1)

    @pytest.mark.parametrize("index", [True, 1.0, np.float64(1.0)], ids=["True", "1.0", "float64"])
    def test_index_must_be_an_integer(self, index):
        with pytest.raises(DomainError, match="basis index must be an integer"):
            basis_state(2, index)

    @pytest.mark.parametrize("n", [1.5, True])
    def test_count_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="n_qubits must be a nonnegative integer"):
            basis_state(n, 0)
        with pytest.raises(DomainError, match="n_qubits must be a nonnegative integer"):
            RegisterState(n, [1.0, 0.0])

    def test_wrong_amp_length_rejected(self):
        with pytest.raises(ValidationError):
            RegisterState(2, np.ones(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            RegisterState(1, [np.nan, 0.0])


class TestApplySingleQubit:
    def test_x_flips_zero(self):
        out = apply_single_qubit(basis_state(1, 0), 0, X)
        assert np.array_equal(out.amps, [0, 1])

    def test_h_makes_plus(self):
        out = apply_single_qubit(basis_state(1, 0), 0, H)
        assert np.allclose(out.amps, [SQRT1_2, SQRT1_2], atol=1e-15)

    def test_x_on_qubit0_of_bell(self):
        bell = RegisterState(2, [SQRT1_2, 0, 0, SQRT1_2])
        out = apply_single_qubit(bell, 0, X)
        assert np.allclose(out.amps, [0, SQRT1_2, SQRT1_2, 0], atol=1e-15)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            apply_single_qubit(basis_state(1, 0), 0, np.array([[1, 0], [0, 2.0]]))

    def test_bad_qubit_index(self):
        with pytest.raises(DomainError):
            apply_single_qubit(basis_state(1, 0), 1, X)

    @pytest.mark.parametrize("q", [0.0, 1.5, True, False])
    def test_qubit_must_be_an_integer(self, q):
        with pytest.raises(DomainError, match="qubit index must be an integer"):
            apply_single_qubit(basis_state(2, 0), q, X)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            state = random_state(rng, n)
            out = apply_single_qubit(state, int(rng.integers(0, n)), random_unitary2(rng))
            assert abs(out.norm2() - 1.0) <= 1e-12


class TestApplyPermutation:
    def test_identity(self):
        state = RegisterState(1, [0.6, 0.8])
        out = apply_permutation(state, [0, 1])
        assert np.array_equal(out.amps, state.amps)

    def test_swap(self):
        out = apply_permutation(RegisterState(1, [0.6, 0.8]), [1, 0])
        assert np.array_equal(out.amps, [0.8, 0.6])

    def test_cnot_control_qubit1(self):
        # control = qubit 1, target = qubit 0: indices 2 and 3 swap.
        cnot = [0, 1, 3, 2]
        out = apply_permutation(basis_state(2, 2), cnot)
        assert np.array_equal(out.amps, basis_state(2, 3).amps)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            apply_permutation(basis_state(2, 0), [0, 0, 1, 2])

    def test_inverse_recovers_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            p = rng.permutation(1 << n)
            inv = np.argsort(p)
            roundtrip = apply_permutation(apply_permutation(state, p), inv)
            assert np.array_equal(roundtrip.amps, state.amps)


def loop_partial_trace(amps: np.ndarray, n: int, keep) -> np.ndarray:
    """Reference partial trace of the pure table amps (leading axis the 2^n
    basis index, trailing axes traced), summed entry by entry."""
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    table = amps.reshape(1 << n, -1)
    d = 1 << len(keep)

    def basis(kept_index: int, traced_index: int) -> int:
        i = 0
        for j, q in enumerate(keep):
            i |= ((kept_index >> j) & 1) << q
        for j, q in enumerate(traced):
            i |= ((traced_index >> j) & 1) << q
        return i

    rho = np.zeros((d, d), dtype=np.complex128)
    for r in range(d):
        for c in range(d):
            for t in range(1 << len(traced)):
                for cell in range(table.shape[1]):
                    rho[r, c] += table[basis(r, t), cell] * np.conj(table[basis(c, t), cell])
    return rho


class TestReducedDensity:
    def test_product_state(self):
        rho = trace_out(basis_state(2, 1).amps, 2, {0})
        assert np.allclose(rho.entries, [[0, 0], [0, 1]], atol=1e-15)

    def test_bell_marginal(self):
        bell = RegisterState(2, [SQRT1_2, 0, 0, SQRT1_2])
        rho = trace_out(bell.amps, 2, {0})
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_plus_marginal(self):
        state = RegisterState(2, [SQRT1_2, SQRT1_2, 0, 0])
        rho = trace_out(state.amps, 2, {0})
        assert np.allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_empty_keep_rejected(self):
        with pytest.raises(DomainError):
            trace_out(basis_state(2, 0).amps, 2, set())

    def test_out_of_range_keep_rejected(self):
        for keep in ({-1}, {2}, {0, 5}):
            with pytest.raises(DomainError):
                trace_out(basis_state(2, 0).amps, 2, keep)

    @pytest.mark.parametrize(
        "keep", [[0.0], {True}, {0, 1.5}, {np.float64(1.0)}, ["0"]], ids=["0.0", "True", "1.5", "float64", "str"]
    )
    def test_keep_must_hold_integers(self, keep):
        # a float keep set ended in a TypeError from the axis arithmetic
        with pytest.raises(DomainError, match="^keep set: a qubit index must be an integer, got "):
            trace_out(basis_state(2, 0).amps, 2, keep)

    def test_keep_all_is_projector(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 3)
        rho = trace_out(state.amps, 3, {0, 1, 2})
        rho.validate()
        assert abs(purity(rho) - 1.0) <= 1e-12
        assert np.allclose(rho.entries, np.outer(state.amps, state.amps.conj()), atol=1e-15)

    def test_validate_invariants_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            keep = {int(q) for q in rng.choice(n, size=int(rng.integers(1, n)), replace=False)}
            trace_out(random_state(rng, n).amps, n, keep).validate()

    def test_matches_loop_partial_trace(self):
        rng = np.random.default_rng(13)
        keeps = ({0}, {1, 3}, {0, 2}, {0, 1, 2, 3})
        for cells in (1, 3, 5):
            for _ in range(3):
                # a random state (one cell) or a random hybrid table
                amps = rng.normal(size=(16, cells)) + 1j * rng.normal(size=(16, cells))
                amps /= np.linalg.norm(amps)
                if cells == 1:
                    amps = amps[:, 0]
                for keep in keeps:
                    got = trace_out(amps, 4, keep).entries
                    assert np.allclose(got, loop_partial_trace(amps, 4, keep), atol=1e-14)


class TestDensityMatrix:
    def test_adopted_entries_read_only(self):
        # trace_out wraps its fresh result without a copy, frozen
        rho = trace_out(random_state(np.random.default_rng(19), 3).amps, 3, {0, 2})
        assert not rho.entries.flags.writeable
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0

    def test_constructor_copies_caller_array(self):
        arr = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(2, arr)
        assert arr.flags.writeable
        assert not rho.entries.flags.writeable
        assert not np.shares_memory(arr, rho.entries)
        arr[0, 0] = 1.0
        assert rho.entries[0, 0] == 0.5


def kept_index(rows: np.ndarray, keep) -> np.ndarray:
    """Reduced basis index of each row: the kept qubits' bits, the
    smallest kept qubit least significant."""
    return sum(((rows >> q) & 1) << j for j, q in enumerate(sorted(keep)))


def verdict(rho: DensityMatrix):
    """validate's message without its number, or None if it passes."""
    try:
        rho.validate()
    except ValidationError as exc:
        return str(exc).rsplit(" ", 1)[0]
    return None


class TestSupportForm:
    @pytest.mark.parametrize("case", [*SUPPORT_CASES, *BAD_BLOCKS])
    def test_matches_dense_reference(self, case):
        rng = np.random.default_rng(29)
        if case in SUPPORT_CASES:
            n, keep, cells, occupied = SUPPORT_CASES[case]
            amps = rng.normal(size=(1 << n, cells)) + 1j * rng.normal(size=(1 << n, cells))
            idx = kept_index(np.arange(1 << n), keep)
            if occupied is not None:
                amps[~np.isin(idx, occupied)] = 0.0
            if occupied != []:
                amps /= np.linalg.norm(amps)
            rho = trace_out(amps, n, keep)
            dense = ref_trace_out(amps, n, keep)
            support = np.unique(idx[np.any(amps != 0, axis=1)])
            assert not rho.support.flags.writeable and not rho.block.flags.writeable
        else:
            support = np.array([1, 4, 6])
            block = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            block /= np.linalg.norm(block)
            if case == "negative-eigenvalue":
                q, _ = np.linalg.qr(block)
                block = (q * [1.2, -0.2, 0.0]) @ q.conj().T
                block = (block + block.conj().T) / 2
            rho = DensityMatrix._adopt(8, support.copy(), block)
            dense = np.zeros((8, 8), dtype=np.complex128)
            for i, r in enumerate(support):
                for j, c in enumerate(support):
                    dense[r, c] = block[i, j]
        assert np.array_equal(rho.support, support)
        assert np.max(np.abs(rho.entries - dense)) <= 1e-15
        assert abs(purity(rho) - float(np.real(np.sum(dense * dense.T)))) <= 1e-15
        got = verdict(rho)
        assert got == verdict(DensityMatrix(rho.dim, dense))
        if case in BAD_BLOCKS:
            assert BAD_BLOCKS[case] in got
        else:
            assert (got is None) == (case != "zero-state")


class TestPurity:
    def test_pure(self):
        assert purity(trace_out(basis_state(1, 0).amps, 1, {0})) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        bell = RegisterState(2, [SQRT1_2, 0, 0, SQRT1_2])
        assert purity(trace_out(bell.amps, 2, {0})) == pytest.approx(0.5, abs=1e-12)

    def test_diag_quarter_three_quarter(self):
        rho = DensityMatrix(2, np.diag([0.25, 0.75]))
        assert purity(rho) == pytest.approx(0.625, abs=1e-15)

    def test_matches_trace_of_square_non_hermitian(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 5, 8):
            e = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            expect = float(np.real(np.trace(e @ e)))
            assert purity(DensityMatrix(d, e)) == pytest.approx(expect, rel=1e-12, abs=1e-12)
