"""Experiment configuration: flat key-value files with dotted prefixes.

Grammar (one setting per line)::

    # comment
    problem.epsilon = 1e-2
    subdomain.2.model = fe

Keys are dotted paths; values are numbers, booleans, or bare strings.
``#`` starts a comment anywhere on a line. Unknown or duplicate keys are
rejected, and so are the keys of the decomposition layout not chosen. An
empty file yields the default experiment: unit square, eps = 1e-2, sigma =
1e-3, b = (cos 60 deg, sin 60 deg), f = x*y, g = 0, T = 5, dt = 5e-3, a
50x50 mesh split into four overlapping quadrants, reduced models of rank
10 with lambda = 0 everywhere except the last quadrant, which stays
finite element.

The default forcing grows toward the outflow corner, so the slow,
late-settling dynamics (and the sharp boundary layer) are concentrated
in the quadrant that keeps a finite element model, while the reduced
subdomains see dynamics that are essentially settled by the end of the
training window.
"""

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError
from .fem import CdrParams, time_independent
from .mesh import Rect, build_mesh
from .schwarz import (GLOBAL_RECT, SchwarzConfig, SubdomainSpec,
                      build_interfaces)
from .timestep import n_steps_for


@time_independent
def corner_source(x, y, t):
    """Forcing profile f(x, y) = x*y, strongest at the outflow corner."""
    return x * y


def _parse_field_selector(key, text):
    """Resolve a forcing/dirichlet selector string to problem data."""
    kind = key.rsplit(".", 1)[1]
    text = text.strip().lower()
    if text == "zero":
        return None
    if text == "one":
        return 1.0
    if text == "xy":
        return corner_source
    if text.startswith("constant:"):
        return _as_float(key, text.split(":", 1)[1])
    raise ConfigurationError(
        f"unknown {kind} selector {text!r}; use zero, one, xy, or "
        f"constant:<v>")


def _as_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {text!r}") \
            from None
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{key}: expected a finite number, got {text!r}")
    return value


def _as_int(key, text):
    value = _as_float(key, text)
    if value != int(value):
        raise ConfigurationError(f"{key}: expected an integer, got {text!r}")
    return int(value)


def _parse_mono_lambda(key, text):
    """``grid`` (None: pick lambda from the candidate grid) or a number."""
    return None if text.strip().lower() == "grid" else _as_float(key, text)


def _parse_rect(key, text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigurationError(f"{key} needs 'x0,x1,y0,y1'")
    return Rect(*(_as_float(key, p) for p in parts))


def _parse_model(key, text):
    model = text.strip().lower()
    if model not in ("fe", "rom"):
        raise ConfigurationError(f"{key} must be fe or rom, got {text!r}")
    return model


#: ``key: (attribute, parser)``; a parser takes ``(key, text)``. A value
#: goes to the ``RunConfig`` attribute; under a ``subdomain.<k>`` key (``k``
#: from 1) to ``RunConfig.per_subdomain[k - 1][attribute]``; without an
#: attribute it is combined with others once the whole file is read.
_KEYS = {
    "problem.epsilon": ("epsilon", _as_float),
    "problem.sigma": ("sigma", _as_float),
    "problem.b_angle_degrees": (None, _as_float),
    "problem.bx": (None, _as_float),
    "problem.by": (None, _as_float),
    "problem.forcing": ("forcing", _parse_field_selector),
    "problem.dirichlet": ("dirichlet", _parse_field_selector),
    "problem.t_end": ("t_end", _as_float),
    "problem.dt": ("dt", _as_float),
    "mesh.nx": ("nx", _as_int),
    "mesh.ny": ("ny", _as_int),
    "mesh.h": (None, _as_float),
    "decomposition.layout": ("layout", lambda key, text: text.strip().lower()),
    "decomposition.split": ("split", _as_float),
    "decomposition.overlap": ("overlap", _as_float),
    "decomposition.count": ("n_custom", _as_int),
    "subdomain.<k>.rect": ("rect", _parse_rect),
    "subdomain.<k>.nx": ("nx", _as_int),
    "subdomain.<k>.ny": ("ny", _as_int),
    "subdomain.<k>.model": ("model", _parse_model),
    "subdomain.<k>.r": ("r", _as_int),
    "subdomain.<k>.lambda": ("lambda", _as_float),
    "training.t_end": ("training_t_end", _as_float),
    "training.r": ("training_r", _as_int),
    "training.lambda": ("training_lambda", _as_float),
    "mono.r": ("mono_r", _as_int),
    "mono.lambda": ("mono_lambda", _parse_mono_lambda),
    "schwarz.tol": ("tol", _as_float),
    "schwarz.max_iters": ("max_iters", _as_int),
    "schwarz.steps_per_window": ("steps_per_window", _as_int),
    "output.dir": ("out_dir", lambda key, text: text),
    "output.field_times": ("field_times", lambda key, text: [
        _as_float(key, p) for p in text.split(",") if p.strip()]),
}

#: Keys read by one decomposition layout only, and that layout.
_LAYOUT_KEYS = {"decomposition.split": "quadrants",
                "decomposition.overlap": "quadrants",
                "decomposition.count": "custom", "subdomain.<k>.rect": "custom"}

#: Keys that exclude each other: the first, or any of the rest.
_EITHER = (("problem.b_angle_degrees", ("problem.bx", "problem.by")),
           ("mesh.h", ("mesh.nx", "mesh.ny")))


def _cells_along(key, length, h):
    """Number of h-cells spanning ``length``, required to be integral."""
    n = round(length / h)
    if n < 1 or abs(n * h - length) > 1e-9 * max(length, h):
        raise ConfigurationError(
            f"{key}: extent {length} is not an integer number of cells "
            f"of size {h}")
    return n


@dataclass
class RunConfig:
    """Validated experiment settings with defaults filled in."""

    epsilon: float = 1e-2
    sigma: float = 1e-3
    b: tuple = (math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
    forcing: object = corner_source
    dirichlet: object = None
    t_end: float = 5.0
    dt: float = 5e-3
    nx: int = 50
    ny: int = 50
    layout: str = "quadrants"
    split: float = 0.5
    overlap: float = 0.08
    #: ``{index from 0: {setting: value}}`` of ``subdomain.<k>.*`` keys.
    per_subdomain: dict = field(default_factory=dict)
    n_custom: int = 0
    training_t_end: float = 0.5
    training_r: int = 10
    training_lambda: float = 0.0
    mono_r: int = 30
    mono_lambda: Optional[float] = None
    tol: float = 1e-9
    max_iters: int = 50
    steps_per_window: int = 1
    out_dir: str = "out"
    field_times: Optional[List[float]] = None

    def params(self):
        return CdrParams(eps=self.epsilon, sigma=self.sigma, b=self.b,
                         forcing=self.forcing, dirichlet=self.dirichlet)

    def _layout_rects(self):
        if self.layout == "quadrants":
            lo = self.split - 0.5 * self.overlap
            hi = self.split + 0.5 * self.overlap
            if not (GLOBAL_RECT.x0 < lo < hi < GLOBAL_RECT.x1):
                raise ConfigurationError(
                    f"overlap band [{lo}, {hi}] must sit strictly inside "
                    f"the domain")
            return [Rect(0.0, hi, 0.0, hi), Rect(lo, 1.0, 0.0, hi),
                    Rect(0.0, hi, lo, 1.0), Rect(lo, 1.0, lo, 1.0)]
        rects = [self.per_subdomain.get(k, {}).get("rect")
                 for k in range(self.n_custom)]
        if None in rects:
            raise ConfigurationError(f"custom layout: subdomain."
                                     f"{rects.index(None) + 1}.rect is missing")
        return rects

    def subdomain_specs(self, force_model=None):
        """Subdomain list with per-index overrides and model defaults.

        The default assignment keeps the last subdomain finite element and
        makes every other one reduced; ``force_model`` pins all of them.
        """
        rects = self._layout_rects()
        n = len(rects)
        hx = GLOBAL_RECT.width / self.nx
        hy = GLOBAL_RECT.height / self.ny
        specs = []
        for k, rect in enumerate(rects):
            over = self.per_subdomain.get(k, {})
            model = force_model or over.get("model",
                                            "fe" if k == n - 1 else "rom")
            nx = over["nx"] if "nx" in over else _cells_along(
                f"subdomain.{k + 1}.nx", rect.width, hx)
            ny = over["ny"] if "ny" in over else _cells_along(
                f"subdomain.{k + 1}.ny", rect.height, hy)
            r = over.get("r", self.training_r)
            lam = over.get("lambda", self.training_lambda)
            specs.append(SubdomainSpec(
                rect=rect, nx=nx, ny=ny, model=model,
                rom_dim=r if model == "rom" else None,
                rom_lambda=lam if model == "rom" else 0.0))
        return tuple(specs)

    def schwarz_config(self, force_model=None):
        return SchwarzConfig(
            subdomains=self.subdomain_specs(force_model), dt=self.dt,
            t_end=self.t_end, tol=self.tol, max_iters=self.max_iters,
            steps_per_window=self.steps_per_window)

    def training_schwarz_config(self):
        """The training data run's: all-FE over the training horizon,
        coupled at every time step (see :func:`~cdrschwarz.driver.cmd_train`).
        """
        return replace(self.schwarz_config(force_model="fe"),
                       t_end=self.training_t_end, steps_per_window=1)

    def resolved_field_times(self):
        return [self.t_end] if self.field_times is None else self.field_times

    def validate(self):
        """Check every setting before any stage runs, the coupling geometry
        included: every Gamma node needs a donor, by the rule of
        :func:`~cdrschwarz.schwarz.build_interfaces`, and every global node
        a subdomain that covers it.
        """
        if self.nx < 2 or self.ny < 2:
            raise ConfigurationError(
                f"global mesh must have at least 2 cells per direction, "
                f"got {self.nx}x{self.ny}")
        self.params()  # checks epsilon/sigma/b
        n_steps = n_steps_for(0.0, self.t_end, self.dt)
        if self.training_t_end > self.t_end + 1e-12:
            raise ConfigurationError(
                f"training horizon {self.training_t_end} exceeds the run "
                f"horizon {self.t_end}")
        if self.layout not in ("quadrants", "custom"):
            raise ConfigurationError(
                f"unknown decomposition layout {self.layout!r}")
        if self.layout == "custom" and self.n_custom < 1:
            raise ConfigurationError(
                "custom layout needs decomposition.count >= 1")
        if self.mono_lambda is not None and self.mono_lambda < 0.0:
            raise ConfigurationError(
                f"mono.lambda must be >= 0, got {self.mono_lambda}")
        for t in self.resolved_field_times():
            if n_steps_for(0.0, t, self.dt) > n_steps:
                raise ConfigurationError(
                    f"output field time {t} outside (0, {self.t_end}]")
        config = self.schwarz_config()
        specs = config.subdomains
        if any(k >= len(specs) for k in self.per_subdomain):
            raise ConfigurationError(
                f"subdomain.{max(self.per_subdomain) + 1}.* is given, but "
                f"the decomposition has {len(specs)} subdomains")
        for k, spec in enumerate(specs):
            if spec.nx < 2 or spec.ny < 2:
                raise ConfigurationError(
                    f"subdomain {k + 1} mesh must have at least 2 cells per "
                    f"direction, got {spec.nx}x{spec.ny}")
        snapshots = self.training_schwarz_config().n_windows + 1
        ranks = [(f"r of subdomain {k + 1}", s.rom_dim, s.nx, s.ny)
                 for k, s in enumerate(specs) if s.model == "rom"]
        ranks.append(("mono.r", self.mono_r, self.nx, self.ny))
        for name, r, nx, ny in ranks:
            interior = (nx - 1) * (ny - 1)
            if not 1 <= r <= min(snapshots, interior):
                raise ConfigurationError(
                    f"POD rank {name} = {r} must be in [1, "
                    f"{min(snapshots, interior)}]: {snapshots} training "
                    f"snapshots, {interior} interior nodes")
        build_interfaces(config)
        nodes = build_mesh(GLOBAL_RECT, self.nx, self.ny).coords
        covered = np.any([s.rect.contains_points(nodes) for s in specs],
                         axis=0)
        if not covered.all():
            x, y = nodes[np.argmin(covered)]
            raise ConfigurationError(
                f"global node ({x}, {y}) is covered by no subdomain")
        return self


@contextmanager
def _at(path, lineno):
    """Prefix a :class:`ConfigurationError` raised inside with the line."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}:{lineno}: {exc}") from None


def _read_pairs(path):
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            pairs.append((lineno, key.strip(), value.strip()))
    return pairs


def parse_config(path):
    """Read, validate, and default-fill an experiment configuration.

    Each key is parsed by its entry in ``_KEYS``; every parse error names
    the file and line.
    """
    cfg = RunConfig()
    lines, collected, layout_keys = {}, {}, []
    for lineno, key, text in _read_pairs(path):
        with _at(path, lineno):
            sub = re.fullmatch(r"subdomain\.(\d+)\.(\w+)", key)
            name = f"subdomain.<k>.{sub.group(2)}" if sub else key
            if key in lines:
                raise ConfigurationError(f"duplicate key {key!r}")
            if name not in _KEYS:
                raise ConfigurationError(f"unknown key {key!r}")
            if sub and int(sub.group(1)) < 1:
                raise ConfigurationError("subdomain indices start at 1")
            lines[key] = lineno
            if name in _LAYOUT_KEYS:
                layout_keys.append((lineno, key, _LAYOUT_KEYS[name]))
            attr, parse = _KEYS[name]
            value = parse(key, text)
            if attr is None:
                collected[key] = value
            elif sub:
                cfg.per_subdomain.setdefault(int(sub.group(1)) - 1,
                                             {})[attr] = value
            else:
                setattr(cfg, attr, value)
    for lineno, key, layout in layout_keys:
        if cfg.layout in _LAYOUT_KEYS.values() and layout != cfg.layout:
            with _at(path, lineno):
                raise ConfigurationError(
                    f"{key} applies to decomposition.layout = {layout} only, "
                    f"not {cfg.layout}")
    for one, rest in _EITHER:
        given = [k for k in (one,) + rest if k in lines]
        if one in lines and len(given) > 1:
            with _at(path, max(lines[k] for k in given)):
                raise ConfigurationError(
                    f"give either {one} or {'/'.join(rest)}, not both")
    if "problem.b_angle_degrees" in collected:
        rad = math.radians(collected["problem.b_angle_degrees"])
        cfg.b = (math.cos(rad), math.sin(rad))
    elif "problem.bx" in collected or "problem.by" in collected:
        cfg.b = (collected.get("problem.bx", 0.0),
                 collected.get("problem.by", 0.0))
    if "mesh.h" in collected:
        with _at(path, lines["mesh.h"]):
            h = collected["mesh.h"]
            if h <= 0.0:
                raise ConfigurationError(f"mesh.h must be > 0, got {h}")
            cfg.nx = _cells_along("mesh.h", GLOBAL_RECT.width, h)
            cfg.ny = _cells_along("mesh.h", GLOBAL_RECT.height, h)
    return cfg.validate()
