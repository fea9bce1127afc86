"""Array-namespace seam: numpy by default, CuPy / torch by registry name.

The batched kernels (``Mechanism._perturb_from_uniforms`` / ``_pdf_batch``, the
adversary GEMMs) are written against an *array namespace* ``xp`` instead of
a hard-coded ``numpy`` import.  An :class:`ArrayBackend` bundles that
namespace with the two transfer functions the host boundary needs
(``from_numpy`` / ``asnumpy``), and a tiny registry — mirroring
:func:`repro.engine.backends.register_backend` — resolves backends by name:

* ``numpy`` — always available, the bit-exact reference.  Every seeded
  numpy run (batched, fused, sharded) is element-wise identical to the
  scalar release loop.
* ``cupy`` / ``torch`` — optional accelerators, probed via
  :mod:`importlib` so listing them never imports (let alone requires)
  the package.  Uniform draws still come from the *numpy* generator and
  are transferred to the device, so the consumed RNG stream is identical;
  floating-point results are only *distributionally* equivalent
  (different FMA/rounding), never asserted bit-equal.

Resolving an unavailable backend raises
:class:`~repro.errors.ValidationError` with the availability table — a
one-line operator error, not an ImportError traceback (the CLI maps it to
exit code 1).
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Any, Callable

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "ArrayBackend",
    "NUMPY_BACKEND",
    "array_backend_names",
    "probe_array_backends",
    "register_array_backend",
    "resolve_array_backend",
]


class ArrayBackend:
    """One array namespace plus its host-transfer functions.

    Attributes
    ----------
    name:
        Canonical registry name (``"numpy"``, ``"cupy"``, ``"torch"``).
    xp:
        The namespace module the kernels call (``xp.log1p``, ``xp.cos``,
        ``xp.exp`` ... the numpy-compatible subset only).
    from_numpy / asnumpy:
        Host-to-device and device-to-host transfers.  For numpy both are
        identity-like (``np.asarray``).
    """

    __slots__ = ("name", "xp", "from_numpy", "asnumpy")

    def __init__(
        self,
        name: str,
        xp: Any,
        from_numpy: Callable[[np.ndarray], Any],
        asnumpy: Callable[[Any], np.ndarray],
    ) -> None:
        self.name = name
        self.xp = xp
        self.from_numpy = from_numpy
        self.asnumpy = asnumpy

    @property
    def is_numpy(self) -> bool:
        """Whether this is the bit-exact numpy reference backend."""
        return self.xp is np

    def __repr__(self) -> str:
        return f"ArrayBackend({self.name!r})"


NUMPY_BACKEND = ArrayBackend("numpy", np, np.asarray, np.asarray)

#: canonical name -> (module probed for availability, loader).  The loader
#: runs only on resolve; listing probes ``importlib.util.find_spec`` so the
#: optional packages are never imported just to print a table.
_ARRAY_BACKENDS: dict[str, tuple[str | None, Callable[[], ArrayBackend]]] = {}
_ARRAY_ALIASES: dict[str, str] = {}


def register_array_backend(
    name: str,
    loader: Callable[[], ArrayBackend],
    aliases: tuple[str, ...] = (),
    probe_module: str | None = None,
) -> None:
    """Register an array backend under ``name`` (plus case-insensitive aliases).

    ``probe_module`` is the import name checked (without importing) to
    report availability; ``None`` means always available.
    """
    _ARRAY_BACKENDS[name] = (probe_module, loader)
    _ARRAY_ALIASES[name.casefold()] = name
    for alias in aliases:
        _ARRAY_ALIASES[alias.casefold()] = name


def _canonical(name: str) -> str:
    canonical = _ARRAY_ALIASES.get(str(name).casefold())
    if canonical is None:
        known = ", ".join(sorted(_ARRAY_BACKENDS))
        raise ValidationError(
            f"unknown array backend {name!r}; registered backends: {known}"
        )
    return canonical


def array_backend_available(name: str) -> bool:
    """Whether ``name`` resolves without an import error (probe only)."""
    probe_module, _ = _ARRAY_BACKENDS[_canonical(name)]
    if probe_module is None:
        return True
    try:
        return importlib.util.find_spec(probe_module) is not None
    except (ImportError, ValueError):  # pragma: no cover - broken namespace pkg
        return False


def array_backend_names() -> list[str]:
    """Sorted canonical backend names (available or not)."""
    return sorted(_ARRAY_BACKENDS)


def probe_array_backends() -> dict[str, bool]:
    """``{name: available}`` for every registered backend, without importing."""
    return {name: array_backend_available(name) for name in array_backend_names()}


def resolve_array_backend(name: "str | ArrayBackend | None") -> ArrayBackend:
    """Live :class:`ArrayBackend` for ``name`` (``None`` means numpy).

    Unknown names and registered-but-uninstalled backends both raise
    :class:`~repro.errors.ValidationError` with the availability table, so
    callers (the CLI in particular) never surface a deep ImportError.
    """
    if name is None:
        return NUMPY_BACKEND
    if isinstance(name, ArrayBackend):
        return name
    canonical = _canonical(name)
    _, loader = _ARRAY_BACKENDS[canonical]
    try:
        return loader()
    except ImportError as exc:
        status = ", ".join(
            f"{key} ({'available' if ok else 'not installed'})"
            for key, ok in probe_array_backends().items()
        )
        raise ValidationError(
            f"array backend {canonical!r} is registered but not installed "
            f"in this environment; backends: {status}"
        ) from exc


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def _load_numpy() -> ArrayBackend:
    return NUMPY_BACKEND


def _load_cupy() -> ArrayBackend:
    cupy = importlib.import_module("cupy")
    return ArrayBackend("cupy", cupy, cupy.asarray, cupy.asnumpy)


def _load_torch() -> ArrayBackend:
    torch = importlib.import_module("torch")

    def asnumpy(value):
        if isinstance(value, torch.Tensor):
            return value.detach().cpu().numpy()
        return np.asarray(value)

    return ArrayBackend("torch", torch, torch.as_tensor, asnumpy)


register_array_backend("numpy", _load_numpy, aliases=("np",))
register_array_backend("cupy", _load_cupy, aliases=("gpu",), probe_module="cupy")
register_array_backend("torch", _load_torch, aliases=("pytorch",), probe_module="torch")
