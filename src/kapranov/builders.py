"""The set-up the construction starts from, and its two worked sources.

The functor starts from one datum, a :class:`Setup`: a cdga A, a dg
derivation delta: A -> Omega, B = Omega^ and a delta-connection on B.
Two families of instances supply it:

* Lie pairs (L, A): A a subalgebra of L, B = L/A the Bott module.  The
  Chevalley-Eilenberg algebra of A together with the splitting-dependent
  derivation delta_j: CE(A) -> C(A, B^) generates the bracket tower on
  C(A, B[1]).

* Linear-map objects psi: E -> g with psi equivariant: here A = CE(g),
  Omega = C(g, E^) with the dual basis in degree +1, delta = psi^, and
  the tower degenerates to R_1, R_2 with R_2(e1, e2) = -psi(e1).e2.
"""

from __future__ import annotations

from .algebra import AlgebraElement, CdgaPresentation, LieAlgebraData, ce_algebra
from .connections import DeltaConnection
from .derivations import DerivationHomotopy, DgDerivation, homotopy_offset
from .graded import GradedBasis
from .modules import DgModule, ModuleElement, add_term, dual_module


class Setup:
    """One instance of the datum: ``algebra`` A, ``omega``, ``delta``:
    A -> Omega, ``bmod`` B = Omega^ and a delta-``connection`` on B.

    A Lie pair's set-up also keeps its ``pair`` and ``splitting``.
    """

    def __init__(self, algebra: CdgaPresentation, omega: DgModule,
                 delta: DgDerivation, bmod: DgModule,
                 connection: DeltaConnection, pair: LiePair | None = None,
                 splitting: dict | None = None):
        self.algebra = algebra
        self.omega = omega
        self.delta = delta
        self.bmod = bmod
        self.connection = connection
        self.pair = pair
        self.splitting = {} if splitting is None else splitting


# ---------------------------------------------------------------------------
# Lie pairs

class LiePair:
    """A subalgebra A inside L, with the quotient B = L/A.

    ``sub_indices`` selects the basis of A inside L; the remaining basis
    vectors represent B.  A splitting j: B -> L is recorded against the
    vector-space splitting j0 (b |-> its representative basis vector) as
    j(b) = j0(b) + sum_a s[b][a] x_a with coefficients in A.
    """

    def __init__(self, ambient: LieAlgebraData, sub_indices: list[int]):
        self.ambient = ambient
        self.sub_indices = list(sub_indices)
        self.quot_indices = [i for i in range(len(ambient.names))
                             if i not in self.sub_indices]
        bad = self.closure_failures()
        if bad:
            raise ValueError("; ".join(bad))

    def closure_failures(self) -> list[str]:
        out = []
        sub = set(self.sub_indices)
        for a in self.sub_indices:
            for b in self.sub_indices:
                for k, c in self.ambient.bracket(a, b).items():
                    if c and k not in sub:
                        out.append(
                            f"[{self.ambient.names[a]}, "
                            f"{self.ambient.names[b]}] leaves the subalgebra")
        return out

    def sub_lie(self) -> LieAlgebraData:
        names = [self.ambient.names[i] for i in self.sub_indices]
        pos = {g: t for t, g in enumerate(self.sub_indices)}
        brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
        for t, a in enumerate(self.sub_indices):
            for u, b in enumerate(self.sub_indices):
                if t < u:
                    val = {pos[k]: c for k, c in self.ambient.bracket(a, b).items() if c}
                    if val:
                        brackets[(t, u)] = val
        return LieAlgebraData(names, brackets)

    def bott_action(self, a_idx: int, b_pos: int) -> dict[int, Scalar]:
        """pr_B [x_a, j0(b)] in coordinates of the quotient basis."""
        b_idx = self.quot_indices[b_pos]
        out: dict[int, Scalar] = {}
        for k, c in self.ambient.bracket(a_idx, b_idx).items():
            if k in self.quot_indices and c:
                out[self.quot_indices.index(k)] = c
        return out

    def quotient_names(self) -> list[str]:
        return [self.ambient.names[i] + "~" for i in self.quot_indices]


def lie_pair_setup(pair: LiePair, splitting: dict | None = None) -> Setup:
    """CE(A), Omega = C(A, B^), delta_j and the canonical connection.

    ``splitting`` maps a quotient position to {sub position: coefficient},
    describing j = j0 + s.  delta for j0 is

        delta(xi^a) = sum_{c, b} <xi^a, pr_A [j0(b), x_c]> xi^c . b^

    and a nonzero s shifts it by the homotopy h = (j0 - j)^.
    """
    algebra = ce_algebra(pair.sub_lie())
    n_sub = len(pair.sub_indices)
    n_quot = len(pair.quot_indices)
    qnames = pair.quotient_names()
    # Omega = C(A, B^): dual Bott action, d(b_i^) = -sum_{a,j} c^a_{ji} xi^a b_j^
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for t in range(n_sub):
        a_idx = pair.sub_indices[t]
        for j in range(n_quot):
            for i, c in pair.bott_action(a_idx, j).items():
                add_term(diff, (i, j), AlgebraElement.monomial((t,), -c))
    omega = DgModule(algebra, GradedBasis([n + "^" for n in qnames],
                                          [0] * n_quot), diff)
    # delta for the vector-space splitting j0
    values: dict[int, ModuleElement] = {}
    for t in range(n_sub):
        acc: dict[int, AlgebraElement] = {}
        for c in range(n_sub):
            for b in range(n_quot):
                br = pair.ambient.bracket(pair.quot_indices[b],
                                          pair.sub_indices[c])
                coeff = br.get(pair.sub_indices[t], 0)
                if coeff:
                    add_term(acc, b, AlgebraElement.monomial((c,), coeff))
        values[t] = ModuleElement(omega, acc)
    delta = DgDerivation(algebra, omega, values)
    if splitting:
        delta = homotopy_offset(
            delta, _splitting_difference(algebra, omega, {}, splitting))
    bmod = dual_module(omega, name_fn=lambda n: n.rstrip("^"))
    conn = DeltaConnection(delta, bmod)
    return Setup(algebra, omega, delta, bmod, conn, pair=pair,
                 splitting=splitting)


def _splitting_difference(algebra: CdgaPresentation, omega: DgModule,
                          s: dict, s_prime: dict) -> DerivationHomotopy:
    """The homotopy (s - s')^: xi^a |-> sum_b (s[b][a] - s'[b][a]) b^, for
    two splittings given as {quotient position: {sub position: c}}."""
    values: dict[int, dict[int, AlgebraElement]] = {}
    for b_pos in range(omega.rank):
        s_b, s_prime_b = s.get(b_pos, {}), s_prime.get(b_pos, {})
        for a_pos in set(s_b) | set(s_prime_b):
            c = s_b.get(a_pos, 0) - s_prime_b.get(a_pos, 0)
            if c:
                values.setdefault(a_pos, {})[b_pos] = AlgebraElement.scalar(c)
    return DerivationHomotopy(algebra, omega, {
        a_pos: ModuleElement(omega, row) for a_pos, row in values.items()})


def splitting_homotopy(setup_from: Setup,
                       setup_to: Setup) -> DerivationHomotopy:
    """The homotopy h = (j - j')^ carrying one splitting's delta to the
    other's: homotopy_offset(delta, h) = delta', which the ``homotopy``
    command checks."""
    same_pair = (setup_from.pair is setup_to.pair
                 or (setup_from.pair.ambient.names
                     == setup_to.pair.ambient.names
                     and setup_from.pair.ambient.brackets
                     == setup_to.pair.ambient.brackets
                     and setup_from.pair.sub_indices
                     == setup_to.pair.sub_indices))
    if not same_pair:
        raise ValueError("setups must come from the same Lie pair")
    return _splitting_difference(setup_from.algebra, setup_from.omega,
                                 setup_from.splitting, setup_to.splitting)


# ---------------------------------------------------------------------------
# linear-map objects

def linear_map_setup(lie: LieAlgebraData, e_names: list[str],
                     actions: dict[int, dict[tuple[int, int], Scalar]],
                     psi: dict[int, dict[int, Scalar]]) -> Setup:
    """A = CE(g), Omega = C(g, E^) with E^ in degree +1, delta = psi^, for
    a linear map psi: E -> g and an action rho of g on E with basis
    ``e_names``: ``actions[a]`` is rho(x_a) as {(i, j): c} with
    rho(x_a) e_i = sum_j c e_j, and ``psi[i]`` is psi(e_i) as {a: c} in the
    basis of g.  Neither is checked here: rho is a representation exactly
    when d^2 = 0 on Omega and on B, and psi is equivariant exactly when
    delta = psi^ is a chain map, which the ``validate`` command reports and
    every other command requires.

    B = dual(Omega) = C(g, E[1]) carries the degenerate tower: the only
    connection is the trivial one (Omega (x) B has nothing in the basis
    degrees), so R_k = 0 for k >= 3 and R_2(e1, e2) = -psi(e1).e2.
    """
    algebra = ce_algebra(lie)
    dim = len(e_names)
    # E^ with the dual action: rho^(x_a) e_i^ = -sum_j rho(x_a)[j -> i] e_j^
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for a, rho in actions.items():
        for (j, i), c in rho.items():
            add_term(diff, (i, j), AlgebraElement.monomial((a,), -c))
    omega = DgModule(algebra, GradedBasis([n + "^" for n in e_names],
                                          [1] * dim), diff)
    values: dict[int, ModuleElement] = {}
    for a in range(lie.dim):
        values[a] = ModuleElement(omega, {
            i: AlgebraElement.scalar(psi.get(i, {}).get(a, 0))
            for i in range(dim)})
    delta = DgDerivation(algebra, omega, values)
    bmod = dual_module(omega, name_fn=lambda n: n.rstrip("^") + "~")
    conn = DeltaConnection(delta, bmod)
    return Setup(algebra, omega, delta, bmod, conn)
