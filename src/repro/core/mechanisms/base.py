"""Mechanism interface shared by all PGLP mechanisms and baselines.

A mechanism maps a true location (grid cell) to a *released* planar point.
Every implementation provides:

* :meth:`Mechanism.release` — draw a perturbed location;
* :meth:`Mechanism.pdf` — the release density (or pmf for discrete
  mechanisms), used by the Bayesian adversary and the analytic privacy tests;
* :meth:`Mechanism.is_exact` — whether the policy discloses a cell exactly
  (isolated policy nodes, Lemma 2.1's extreme case).

Batched interface
-----------------
Every noisy release consumes a fixed number of uniforms,
:attr:`Mechanism.uniforms_per_release` (``k``), and a mechanism is defined
by one transform hook:

* :meth:`Mechanism._perturb_from_uniforms` — map an ``(n, k)`` block of
  uniforms (row ``i`` belongs to ``cells[i]``) to ``(n, 2)`` releases;
* :meth:`Mechanism._pdf_batch` — evaluate the density on an ``(m, 2)`` grid
  of points against ``n`` cells at once, returning ``(m, n)``.

The base class is the only place uniforms are drawn.  :meth:`_perturb_batch`
draws ``rng.random((n, k))`` row-major (tiled through a workspace when one
is given) and :meth:`_perturb` is a singleton batch, so
``release_batch(cells, rng)`` draws *exactly* the stream that sequential
``release(cell, rng)`` calls would — batching is a pure throughput
optimisation, not a semantic change.  :meth:`release_streams` serves many
independent streams at once: each key fills its slice of a shared tile from
its own generator, then one transform call runs per tile.
:meth:`release_batch` returns a :class:`ReleaseBatch` (structure-of-arrays),
and :meth:`pdf_matrix` is the batched likelihood the Bayesian adversary and
the HMM filter consume.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.policy_graph import PolicyGraph
from repro.core.workspace import FUSED_TILE_ROWS, RoundWorkspace
from repro.core.xp import NUMPY_BACKEND, ArrayBackend, resolve_array_backend
from repro.errors import MechanismError
from repro.geo.grid import GridWorld
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_epsilon

__all__ = ["Release", "ReleaseBatch", "Mechanism"]


@dataclass(frozen=True)
class Release:
    """One perturbed location release.

    Attributes
    ----------
    point:
        The released planar coordinate ``(x, y)``.
    exact:
        True when the policy allowed exact disclosure of the true location
        (the release carries no noise).
    mechanism:
        Name of the producing mechanism, for experiment bookkeeping.
    epsilon:
        The privacy budget charged for this release (0 when ``exact`` —
        disclosure is a policy decision, not a budget expenditure).
    """

    point: tuple[float, float]
    exact: bool = False
    mechanism: str = ""
    epsilon: float = 0.0
    metadata: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ReleaseBatch:
    """Many releases in structure-of-arrays layout.

    The batched counterpart of :class:`Release`, produced by
    :meth:`Mechanism.release_batch`.  Keeping the columns as flat arrays is
    what lets the server pipeline, the monitoring apps and the benchmarks
    stay allocation-free on the hot path; :meth:`to_releases` recovers the
    scalar records when object-per-release ergonomics are wanted.

    Attributes
    ----------
    points:
        ``(n, 2)`` released planar coordinates.
    exact:
        ``(n,)`` bool — True where the policy disclosed the cell exactly.
    epsilons:
        ``(n,)`` budget charged per release (0 where ``exact``).
    cells:
        ``(n,)`` the true cells the releases were drawn for.
    mechanism:
        Name of the producing mechanism.
    """

    points: np.ndarray
    exact: np.ndarray
    epsilons: np.ndarray
    cells: np.ndarray
    mechanism: str = ""

    def __post_init__(self) -> None:
        n = len(self.cells)
        if self.points.shape != (n, 2):
            raise MechanismError(
                f"points must have shape ({n}, 2), got {self.points.shape}"
            )
        if self.exact.shape != (n,) or self.epsilons.shape != (n,):
            raise MechanismError("exact and epsilons must be flat arrays over the batch")

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, index: int) -> Release:
        i = int(index)
        return Release(
            point=(float(self.points[i, 0]), float(self.points[i, 1])),
            exact=bool(self.exact[i]),
            mechanism=self.mechanism,
            epsilon=float(self.epsilons[i]),
        )

    def __iter__(self) -> Iterator[Release]:
        return (self[i] for i in range(len(self)))

    def to_releases(self) -> list[Release]:
        """The batch as scalar :class:`Release` records (AoS view)."""
        return [self[i] for i in range(len(self))]


class Mechanism(abc.ABC):
    """Base class for ``{epsilon, G}``-location-privacy mechanisms.

    Parameters
    ----------
    world:
        The grid world supplying node coordinates.
    graph:
        The location policy graph; must cover a subset of the world's cells.
    epsilon:
        Privacy budget per release.
    """

    #: Whether :meth:`pdf` is a probability *mass* function over cells
    #: (discrete output) rather than a planar density.
    discrete: bool = False

    #: Uniforms one noisy release consumes (``k``): every subclass sets it,
    #: and :meth:`_perturb_from_uniforms` reads exactly ``k`` per row.
    uniforms_per_release: int

    def __init__(self, world: GridWorld, graph: PolicyGraph, epsilon: float) -> None:
        self.world = world
        self.graph = graph
        self.epsilon = check_epsilon(epsilon)
        outside = [node for node in graph.nodes if node not in world]
        if outside:
            raise MechanismError(
                f"policy graph {graph.name!r} has nodes outside the world: {sorted(outside)[:5]}"
            )

    # ------------------------------------------------------------------
    # Array-backend seam
    # ------------------------------------------------------------------
    @property
    def array_backend(self) -> ArrayBackend:
        """The array backend the batched kernels compute on (default numpy)."""
        backend = getattr(self, "_array_backend", None)
        return backend if backend is not None else NUMPY_BACKEND

    @property
    def xp(self):
        """The live array namespace (``numpy`` unless a backend was set)."""
        return self.array_backend.xp

    def use_array_backend(self, backend) -> "Mechanism":
        """Route the batched kernels through a registry-named array backend.

        ``backend`` is a name (``"numpy"`` / ``"cupy"`` / ``"torch"``), a
        live :class:`~repro.core.xp.ArrayBackend`, or ``None`` (numpy).
        Uniform draws stay on the *numpy* generator regardless (the RNG
        stream contract), so a non-numpy backend changes floating-point
        rounding only: results are distributionally equivalent, while the
        numpy backend remains the bit-exact reference.  Returns ``self``
        for chaining.
        """
        self._array_backend = resolve_array_backend(backend)
        return self

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return type(self).__name__

    def is_exact(self, cell: int) -> bool:
        """Whether the policy discloses ``cell`` without perturbation."""
        return self.graph.is_disclosable(cell)

    def release(self, cell: int, rng=None) -> Release:
        """Release a (possibly perturbed) location for true cell ``cell``."""
        if cell not in self.graph:
            raise MechanismError(f"cell {cell} is not covered by policy {self.graph.name!r}")
        if self.is_exact(cell):
            return Release(
                point=self.world.coords(cell),
                exact=True,
                mechanism=self.name,
                epsilon=0.0,
            )
        point = self._perturb(cell, ensure_rng(rng))
        return Release(
            point=(float(point[0]), float(point[1])),
            exact=False,
            mechanism=self.name,
            epsilon=self.epsilon,
        )

    def pdf(self, point: Sequence[float], cell: int) -> float:
        """Density (or pmf) of releasing ``point`` when the truth is ``cell``.

        Undefined for disclosable cells (their release is a Dirac mass);
        callers must branch on :meth:`is_exact` first.
        """
        if cell not in self.graph:
            raise MechanismError(f"cell {cell} is not covered by policy {self.graph.name!r}")
        if self.is_exact(cell):
            raise MechanismError(
                f"cell {cell} is disclosable; its release distribution is a point mass"
            )
        return self._pdf(np.asarray(point, dtype=float), cell)

    def pdf_vector(self, point: Sequence[float], cells: Sequence[int]) -> np.ndarray:
        """``pdf(point | cell)`` for many candidate cells (0 for exact cells).

        The Bayesian adversary calls this per observed release; exact cells
        get likelihood 0 because a continuous released point almost surely
        differs from any disclosed cell centre.  This is a single-point view
        of :meth:`pdf_matrix`, so vectorized ``_pdf_batch`` overrides speed
        up every historical caller for free.
        """
        z = np.asarray(point, dtype=float).reshape(1, 2)
        return self.pdf_matrix(z, cells)[0]

    # ------------------------------------------------------------------
    # Batched interface
    # ------------------------------------------------------------------
    def release_batch(
        self,
        cells: Sequence[int],
        rng=None,
        workspace: "RoundWorkspace | None" = None,
    ) -> ReleaseBatch:
        """Release many (possibly perturbed) locations in one call.

        Semantically equivalent to ``[self.release(c, rng) for c in cells]``
        — including the consumed RNG stream, so a seeded batched run
        reproduces a seeded scalar run element-wise — but the noisy subset is
        drawn in one :meth:`_perturb_batch` call.

        With ``workspace`` (a :class:`~repro.core.workspace.RoundWorkspace`)
        every output column and kernel temporary lives in the workspace's
        reused buffers instead of fresh allocations; the returned batch then
        holds *views* that the next workspace-backed call overwrites.
        Output is element-wise identical either way — uniforms are drawn
        with ``rng.random(out=...)``, which consumes the same stream as the
        allocating ``rng.random((n, k))``.
        """
        cell_arr = self._checked_cells(cells)
        n = len(cell_arr)
        disclosed = self._coverage_masks()[1]
        if workspace is None or not self.array_backend.is_numpy:
            exact = disclosed[cell_arr]
            points = np.empty((n, 2), dtype=float)
            epsilons = np.where(exact, 0.0, self.epsilon)
        else:
            exact = np.take(disclosed, cell_arr, out=workspace.bool_buffer("release_exact", n))
            points = workspace.points_buffer("release_points", n)
            epsilons = workspace.buffer("release_epsilons", n)
            epsilons.fill(self.epsilon)
        has_exact = bool(exact.any())
        if has_exact:
            points[exact] = self.world.coords_array(cell_arr[exact])
            if workspace is not None and self.array_backend.is_numpy:
                epsilons[exact] = 0.0
            noisy = np.flatnonzero(~exact)
            if noisy.size:
                points[noisy] = self._perturb_batch(
                    cell_arr[noisy], ensure_rng(rng), workspace=workspace
                )
        elif n:
            # Hot path: nothing disclosed, so the kernel can write straight
            # into the full points view (allocation-free with a workspace).
            drawn = self._perturb_batch(
                cell_arr,
                ensure_rng(rng),
                out=points if workspace is not None and self.array_backend.is_numpy else None,
                workspace=workspace,
            )
            if drawn is not points:
                points[...] = drawn
        if workspace is not None:
            workspace.rounds_served += 1
        return ReleaseBatch(
            points=points,
            exact=exact,
            epsilons=epsilons,
            cells=cell_arr,
            mechanism=self.name,
        )

    def release_streams(
        self,
        cells,
        seeds,
        bounds,
        workspace: "RoundWorkspace | None" = None,
    ) -> ReleaseBatch:
        """Release many keys' blocks of ``cells``, each from its own stream.

        Key ``i`` owns rows ``bounds[i]:bounds[i + 1]`` of ``cells`` and draws
        them from ``np.random.default_rng(seeds[i])``, so the result equals
        one :meth:`release_batch` call per key on that generator, concatenated
        (keys with no rows draw nothing).  The work is one bulk kernel: keys
        are packed whole into tiles of at most ``FUSED_TILE_ROWS`` noisy rows
        (a longer key gets a tile of its own), each key fills its slice of
        the tile's uniforms with ``rng.random(out=...)``, skipping disclosed
        rows, and one :meth:`_perturb_from_uniforms` call transforms the
        tile.  Scratch memory is bounded by the tile, not by ``len(cells)``;
        with ``workspace`` it is reused across calls.  The returned columns
        are fresh arrays.
        """
        cell_arr = self._checked_cells(cells)
        n = len(cell_arr)
        key_bounds = np.asarray(bounds, dtype=np.int64)
        seed_list = np.asarray(seeds).tolist()
        if (
            len(key_bounds) != len(seed_list) + 1
            or key_bounds[0] != 0
            or key_bounds[-1] != n
        ):
            raise MechanismError(
                f"{len(seed_list)} keys over {n} rows need {len(seed_list) + 1} "
                f"bounds running from 0 to {n}"
            )
        exact = self._coverage_masks()[1][cell_arr]
        points = np.empty((n, 2), dtype=float)
        epsilons = np.where(exact, 0.0, self.epsilon)
        # Noisy rows in row order; key i owns noisy[noisy_bounds[i]:noisy_bounds[i + 1]].
        noisy = np.flatnonzero(~exact)
        noisy_bounds = np.searchsorted(noisy, key_bounds)
        if len(noisy) < n:
            points[exact] = self.world.coords_array(cell_arr[exact])
        if len(noisy):
            if workspace is None:
                workspace = RoundWorkspace()
            k = self.uniforms_per_release
            longest = int(np.diff(noisy_bounds).max())
            tile_rows = max(min(len(noisy), FUSED_TILE_ROWS), longest)
            u = workspace.buffer(f"uniforms{k}", tile_rows, cols=k)
            edges = noisy_bounds.tolist()
            start = 0  # first noisy row of the open tile
            for seed, low, high in zip(seed_list, edges[:-1], edges[1:]):
                if high == low:
                    continue
                if high - start > FUSED_TILE_ROWS and low > start:
                    self._transform_tile(cell_arr, noisy, start, low, u, points, workspace)
                    start = low
                np.random.default_rng(seed).random(out=u[low - start : high - start])
            self._transform_tile(cell_arr, noisy, start, len(noisy), u, points, workspace)
        return ReleaseBatch(
            points=points, exact=exact, epsilons=epsilons, cells=cell_arr, mechanism=self.name
        )

    def _transform_tile(self, cells, noisy, start, stop, u, points, workspace) -> None:
        """Transform noisy rows ``noisy[start:stop]`` from ``u`` into ``points``."""
        m = stop - start
        if len(noisy) == len(cells):  # nothing disclosed: rows are contiguous
            self._perturb_from_uniforms(
                cells[start:stop], u[:m], out=points[start:stop], workspace=workspace
            )
            return
        rows = noisy[start:stop]
        tile_cells = np.take(cells, rows, out=workspace.int_buffer("tile_cells", m))
        points[rows] = self._perturb_from_uniforms(
            tile_cells, u[:m], out=workspace.points_buffer("tile_points", m), workspace=workspace
        )

    def pdf_matrix(
        self, points, cells: Sequence[int] | None = None, dtype=None
    ) -> np.ndarray:
        """``(m, n)`` matrix of ``pdf(point_i | cell_j)``.

        Follows :meth:`pdf_vector` semantics (not :meth:`pdf`'s): cells
        outside the policy and disclosable cells contribute likelihood 0
        instead of raising, which is exactly what Bayesian inference wants.
        ``cells`` defaults to the whole world.

        ``dtype`` selects the output precision (default float64).  The
        float32 adversary mode passes ``np.float32`` so the downstream
        GEMMs run single precision; the density itself is still evaluated
        in float64 and rounded once on store, keeping the relative error
        within one float32 ulp (~1.2e-7) per entry.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise MechanismError(f"points must have shape (m, 2), got {pts.shape}")
        if cells is None:
            cell_arr = np.arange(self.world.n_cells)
            valid = self._world_pdf_mask()
        else:
            if not isinstance(cells, np.ndarray):
                cells = list(cells)
            cell_arr = np.asarray(cells, dtype=int)
            mask = self._world_pdf_mask()
            in_world = (cell_arr >= 0) & (cell_arr < self.world.n_cells)
            valid = np.zeros(len(cell_arr), dtype=bool)
            valid[in_world] = mask[cell_arr[in_world]]
        out = np.zeros((len(pts), len(cell_arr)), dtype=dtype if dtype is not None else float)
        index = np.flatnonzero(valid)
        if index.size:
            out[:, index] = self._pdf_batch(pts, cell_arr[index])
        return out

    def _checked_cells(self, cells) -> np.ndarray:
        """``cells`` as a flat int array, every cell covered by the policy."""
        if not isinstance(cells, np.ndarray):
            cells = list(cells)
        cell_arr = np.asarray(cells, dtype=int)
        if cell_arr.ndim != 1:
            raise MechanismError(f"cells must be a flat sequence, got shape {cell_arr.shape}")
        covered = self._coverage_masks()[0]
        in_world = (cell_arr >= 0) & (cell_arr < self.world.n_cells)
        if not in_world.all():
            bad = cell_arr[~in_world]
            raise MechanismError(
                f"cell {int(bad[0])} is not covered by policy {self.graph.name!r}"
            )
        if not covered[cell_arr].all():
            bad = cell_arr[~covered[cell_arr]]
            raise MechanismError(
                f"cell {int(bad[0])} is not covered by policy {self.graph.name!r}"
            )
        return cell_arr

    def _coverage_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached per-world-cell ``(covered, disclosed)`` boolean masks.

        Policy graphs are immutable after construction, so both masks are
        computed once *per (policy, world) pair* and shared by every
        mechanism instance built on that pair — they live next to the other
        per-pair construction caches on the graph (the P-LM delta cache,
        the P-PIM hull cache), so rebuilding a mechanism costs no mask
        recomputation.  ``disclosed`` goes through :meth:`is_exact`;
        mechanisms that *override* it (Geo-I never discloses) get an
        instance-level disclosed mask instead of polluting the shared
        cache.
        """
        cached = getattr(self, "_coverage_masks_cache", None)
        if cached is not None:
            return cached
        n = self.world.n_cells
        pair_cache = self.graph.__dict__.setdefault("_coverage_mask_cache", {})
        shared = pair_cache.get(self.world)
        if shared is None:
            covered = np.fromiter(
                (cell in self.graph for cell in range(n)), dtype=bool, count=n
            )
            graph_disclosed = np.fromiter(
                (covered[cell] and self.graph.is_disclosable(cell) for cell in range(n)),
                dtype=bool,
                count=n,
            )
            covered.setflags(write=False)
            graph_disclosed.setflags(write=False)
            shared = (covered, graph_disclosed)
            pair_cache[self.world] = shared
        covered, disclosed = shared
        if type(self).is_exact is not Mechanism.is_exact:
            disclosed = np.fromiter(
                (covered[cell] and self.is_exact(cell) for cell in range(n)),
                dtype=bool,
                count=n,
            )
            disclosed.setflags(write=False)
        cached = (covered, disclosed)
        self._coverage_masks_cache = cached
        return cached

    def _world_pdf_mask(self) -> np.ndarray:
        """Mask of world cells with a defined density (covered and noisy).

        Cached per instance — :meth:`pdf_matrix` is called once per
        adversary scoring round, and the mask never changes.
        """
        cached = getattr(self, "_world_pdf_mask_cache", None)
        if cached is None:
            covered, disclosed = self._coverage_masks()
            cached = covered & ~disclosed
            cached.setflags(write=False)
            self._world_pdf_mask_cache = cached
        return cached

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _perturb_from_uniforms(
        self,
        cells: np.ndarray,
        u: np.ndarray,
        out: np.ndarray | None = None,
        workspace: RoundWorkspace | None = None,
    ) -> np.ndarray:
        """Noisy releases for non-disclosable ``cells`` from uniforms: ``(n, 2)``.

        ``u`` is ``(n, k)`` with ``k = uniforms_per_release``; row ``i``
        drives ``cells[i]`` alone, so any split of the rows into calls gives
        the same values.  ``u`` is scratch the hook may overwrite.  ``out``
        (an ``(n, 2)`` float array) receives the releases in place when
        given; ``workspace`` pools kernel temporaries.  On a non-numpy array
        backend the hook runs its arithmetic there and copies back.
        """

    @abc.abstractmethod
    def _pdf(self, point: np.ndarray, cell: int) -> float:
        """Release density at ``point`` for a non-disclosable ``cell``."""

    def _perturb(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one noisy release for a non-disclosable cell (a singleton batch)."""
        return self._perturb_batch(np.array([cell]), rng)[0]

    def _perturb_batch(
        self,
        cells: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray | None = None,
        workspace: RoundWorkspace | None = None,
    ) -> np.ndarray:
        """Draw noisy releases for many non-disclosable cells: ``(n, 2)``.

        Draws ``k`` uniforms per row from ``rng`` in row order and hands
        them to :meth:`_perturb_from_uniforms`.  With ``workspace`` the rows
        stream through ``FUSED_TILE_ROWS``-row tiles of pooled uniforms
        (``rng.random(out=...)`` per tile consumes the same stream as one
        ``rng.random((n, k))`` block), so the multi-pass kernels run out of
        cache and the output lands in ``out`` or a pooled buffer.  The
        uniforms are always numpy draws, whatever the array backend.
        """
        n = len(cells)
        k = self.uniforms_per_release
        if workspace is None or not self.array_backend.is_numpy:
            return self._perturb_from_uniforms(cells, rng.random((n, k)), out=out)
        if out is None:
            out = workspace.points_buffer("perturb_points", n)
        u = workspace.buffer(f"uniforms{k}", min(n, FUSED_TILE_ROWS), cols=k)
        for start in range(0, n, FUSED_TILE_ROWS):
            stop = min(start + FUSED_TILE_ROWS, n)
            tile = u[: stop - start]
            rng.random(out=tile)
            self._perturb_from_uniforms(
                cells[start:stop], tile, out=out[start:stop], workspace=workspace
            )
        return out

    def _to_host(self, device, out: np.ndarray | None) -> np.ndarray:
        """Copy a backend array to a float numpy array (into ``out`` if given)."""
        result = np.asarray(self.array_backend.asnumpy(device), dtype=float)
        if out is None:
            return result
        out[...] = result
        return out

    def _pdf_batch(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Density of each point under each non-disclosable cell: ``(m, n)``.

        Generic fallback: a Python double loop over :meth:`_pdf`.
        """
        out = np.empty((len(points), len(cells)), dtype=float)
        for j, cell in enumerate(cells):
            for i in range(len(points)):
                out[i, j] = self._pdf(points[i], int(cell))
        return out

    def __repr__(self) -> str:
        return (
            f"{self.name}(epsilon={self.epsilon}, policy={self.graph.name!r}, "
            f"world={self.world.width}x{self.world.height})"
        )
