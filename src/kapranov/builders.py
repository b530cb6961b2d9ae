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
from .graded import GradedBasis, exact
from .modules import DgModule, ModuleElement, add_term, dual_module


def _as_fraction_dict(d):
    """``d`` with its values normalised by :func:`exact`, zeros dropped."""
    out = {k: exact(v) for k, v in d.items()}
    return {k: v for k, v in out.items() if v}


class Setup:
    """One instance of the datum: ``algebra`` A, ``omega``, ``delta``:
    A -> Omega, ``bmod`` B = Omega^ and a delta-``connection`` on B.

    A Lie pair's set-up also keeps its ``pair`` and ``splitting``, a
    linear map's its :class:`LinearMapObject` as ``data``; a set-up read
    from raw data keeps neither.
    """

    def __init__(self, algebra: CdgaPresentation, omega: DgModule,
                 delta: DgDerivation, bmod: DgModule,
                 connection: DeltaConnection, pair: LiePair | None = None,
                 splitting: dict | None = None,
                 data: LinearMapObject | None = None):
        self.algebra = algebra
        self.omega = omega
        self.delta = delta
        self.bmod = bmod
        self.connection = connection
        self.pair = pair
        self.splitting = {} if splitting is None else splitting
        self.data = data


# ---------------------------------------------------------------------------
# Lie pairs

class LiePair:
    """A subalgebra A inside L, with the quotient B = L/A.

    ``sub_indices`` selects the basis of A inside L; the remaining basis
    vectors represent B.  A splitting j: B -> L is recorded against the
    vector-space splitting j0 (b |-> its representative basis vector) as
    j(b) = j0(b) + sum_a s[b][a] x_a with coefficients in A.
    """

    def __init__(self, ambient: LieAlgebraData, sub_indices: list[int],
                 label: str = ""):
        self.ambient = ambient
        self.sub_indices = list(sub_indices)
        self.quot_indices = [i for i in range(len(ambient.names))
                             if i not in self.sub_indices]
        self.label = label
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


def lie_pair_setup(pair: LiePair, splitting: dict | None = None,
                   label: str = "") -> Setup:
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
                                          [0] * n_quot), diff,
                     label=f"Omega({label or pair.label})")
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
        if acc:
            values[t] = ModuleElement(omega, acc)
    delta = DgDerivation(algebra, omega, values,
                         label=f"delta({label or pair.label})")
    if splitting:
        delta = homotopy_offset(
            delta, _splitting_difference(algebra, omega, {}, splitting))
        delta.label = f"delta_j({label or pair.label})"
    bmod = dual_module(omega, name_fn=lambda n: n.rstrip("^"))
    conn = DeltaConnection(delta, bmod, label="canonical")
    return Setup(algebra, omega, delta, bmod, conn, pair=pair,
                 splitting=splitting)


def _splitting_difference(algebra: CdgaPresentation, omega: DgModule,
                          s: dict, s_prime: dict) -> DerivationHomotopy:
    """The homotopy (s - s')^: xi^a |-> sum_b (s[b][a] - s'[b][a]) b^, for
    two splittings given as {quotient position: {sub position: c}}."""
    values: dict[int, dict[int, AlgebraElement]] = {}
    for b_pos in range(omega.rank):
        s_b = _as_fraction_dict(s.get(b_pos, {}))
        s_prime_b = _as_fraction_dict(s_prime.get(b_pos, {}))
        for a_pos in set(s_b) | set(s_prime_b):
            c = s_b.get(a_pos, 0) - s_prime_b.get(a_pos, 0)
            if c:
                values.setdefault(a_pos, {})[b_pos] = AlgebraElement.scalar(c)
    return DerivationHomotopy(algebra, omega, {
        a_pos: ModuleElement(omega, row) for a_pos, row in values.items()})


class OffsetMismatch(ValueError):
    """A computed homotopy that does not carry delta to delta'; the
    homotopy itself is kept in ``homotopy``."""

    def __init__(self, message: str, homotopy: DerivationHomotopy):
        super().__init__(message)
        self.homotopy = homotopy


def splitting_homotopy(setup_from: Setup,
                       setup_to: Setup) -> DerivationHomotopy:
    """The homotopy h = (j - j')^ carrying one splitting's delta to the
    other's; verified against homotopy_offset before returning (raises
    OffsetMismatch if it does not match)."""
    same_pair = (setup_from.pair is setup_to.pair
                 or (setup_from.pair.ambient.names
                     == setup_to.pair.ambient.names
                     and setup_from.pair.ambient.brackets
                     == setup_to.pair.ambient.brackets
                     and setup_from.pair.sub_indices
                     == setup_to.pair.sub_indices))
    if not same_pair:
        raise ValueError("setups must come from the same Lie pair")
    h = _splitting_difference(setup_from.algebra, setup_from.omega,
                              setup_from.splitting, setup_to.splitting)
    if homotopy_offset(setup_from.delta, h) != setup_to.delta:
        raise OffsetMismatch("computed homotopy does not carry delta to "
                             "delta'", h)
    return h


# ---------------------------------------------------------------------------
# linear-map objects

class LinearMapObject:
    """A linear map psi: E -> g for an action rho of g on E.

    ``actions[a]`` is rho(x_a) as {(i, j): c} with rho(x_a) e_i = sum_j c e_j;
    ``psi[i]`` is psi(e_i) as {a: c} in the basis of g.  The object is not
    checked here: rho is a representation exactly when d^2 = 0 on Omega
    and on B, and psi is equivariant exactly when delta = psi^ is a chain
    map, which the ``validate`` command reports and every other command
    requires.
    """

    def __init__(self, lie: LieAlgebraData, e_names: list[str],
                 actions: dict[int, dict[tuple[int, int], Scalar]],
                 psi: dict[int, dict[int, Scalar]], label: str = ""):
        self.lie = lie
        self.e_names = list(e_names)
        self.actions = {a: _as_fraction_dict(m) for a, m in actions.items()}
        self.actions = {a: m for a, m in self.actions.items() if m}
        self.psi = {i: _as_fraction_dict(m) for i, m in psi.items()}
        self.psi = {i: m for i, m in self.psi.items() if m}
        self.label = label

    def dim_e(self) -> int:
        return len(self.e_names)


def linear_map_setup(data: LinearMapObject) -> Setup:
    """A = CE(g), Omega = C(g, E^) with E^ in degree +1, delta = psi^.

    B = dual(Omega) = C(g, E[1]) carries the degenerate tower: the only
    connection is the trivial one (Omega (x) B has nothing in the basis
    degrees), so R_k = 0 for k >= 3 and R_2(e1, e2) = -psi(e1).e2.
    """
    algebra = ce_algebra(data.lie)
    dim = data.dim_e()
    # E^ with the dual action: rho^(x_a) e_i^ = -sum_j rho(x_a)[j -> i] e_j^
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for a in data.actions:
        for (j, i), c in data.actions[a].items():
            add_term(diff, (i, j), AlgebraElement.monomial((a,), -c))
    omega = DgModule(algebra, GradedBasis([n + "^" for n in data.e_names],
                                          [1] * dim), diff,
                     label=f"Omega({data.label})")
    values: dict[int, ModuleElement] = {}
    for a in range(len(data.lie.names)):
        acc: dict[int, AlgebraElement] = {}
        for i in range(dim):
            c = data.psi.get(i, {}).get(a, 0)
            if c:
                acc[i] = AlgebraElement.scalar(c)
        if acc:
            values[a] = ModuleElement(omega, acc)
    delta = DgDerivation(algebra, omega, values,
                         label=f"psi^({data.label})")
    bmod = dual_module(omega, name_fn=lambda n: n.rstrip("^") + "~")
    conn = DeltaConnection(delta, bmod, label="trivial")
    return Setup(algebra, omega, delta, bmod, conn, data=data)
