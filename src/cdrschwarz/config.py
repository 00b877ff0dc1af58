"""Experiment configuration: flat key-value files with dotted prefixes.

Grammar (one setting per line)::

    # comment
    problem.epsilon = 1e-2
    subdomain.2.model = fe

Keys are dotted paths; values are numbers, booleans, or bare strings.
``#`` starts a comment anywhere on a line. Unknown or duplicate keys are
rejected. An empty file yields the default experiment: unit square,
eps = 1e-2, sigma = 1e-3, b = (cos 60 deg, sin 60 deg), f = x*y, g = 0,
T = 5, dt = 5e-3, a 50x50 mesh split into four overlapping quadrants,
reduced models of rank 10 with lambda = 0 everywhere except the last
quadrant, which stays finite element.

The default forcing grows toward the outflow corner, so the slow,
late-settling dynamics (and the sharp boundary layer) are concentrated
in the quadrant that keeps a finite element model, while the reduced
subdomains see dynamics that are essentially settled by the end of the
training window.
"""

import math
import os
import re
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import ConfigurationError
from .fem import CdrParams, time_independent
from .mesh import Rect
from .schwarz import GLOBAL_RECT, SchwarzConfig, SubdomainSpec
from .timestep import n_steps_for

_SUBDOMAIN_KEY = re.compile(
    r"^subdomain\.(\d+)\.(rect|nx|ny|model|r|lambda)$")


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
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(f"bad {kind} selector {text!r}") from None
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


#: ``key: (RunConfig attribute, parser)``; a parser takes ``(key, text)``.
_KEYS = {
    "problem.epsilon": ("epsilon", _as_float),
    "problem.sigma": ("sigma", _as_float),
    "problem.forcing": ("forcing", _parse_field_selector),
    "problem.dirichlet": ("dirichlet", _parse_field_selector),
    "problem.t_end": ("t_end", _as_float),
    "problem.dt": ("dt", _as_float),
    "mesh.nx": ("nx", _as_int),
    "mesh.ny": ("ny", _as_int),
    "decomposition.layout": ("layout", lambda key, text: text.strip().lower()),
    "decomposition.split": ("split", _as_float),
    "decomposition.overlap": ("overlap", _as_float),
    "decomposition.count": ("n_custom", _as_int),
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

#: Numeric keys resolved together once the whole file is read.
_COLLECTED = {"problem.b_angle_degrees", "problem.bx", "problem.by",
              "mesh.h"}


def _cells_along(key, length, h):
    """Number of h-cells spanning ``length``, required to be integral."""
    n = round(length / h)
    if n < 1 or abs(n * h - length) > 1e-9 * max(length, h):
        raise ConfigurationError(
            f"{key}: extent {length} is not an integer number of cells "
            f"of size {h}")
    return n


@dataclass
class SubdomainOverride:
    """Per-subdomain settings collected from ``subdomain.<i>.*`` keys."""

    rect: Optional[Rect] = None
    nx: Optional[int] = None
    ny: Optional[int] = None
    model: Optional[str] = None
    r: Optional[int] = None
    lam: Optional[float] = None


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
    overrides: dict = field(default_factory=dict)
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

    @property
    def h(self):
        return GLOBAL_RECT.width / self.nx

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
        rects = []
        for k in range(self.n_custom):
            over = self.overrides.get(k)
            if over is None or over.rect is None:
                raise ConfigurationError(
                    f"custom layout: subdomain.{k + 1}.rect is missing")
            rects.append(over.rect)
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
            over = self.overrides.get(k, SubdomainOverride())
            if force_model is not None:
                model = force_model
            elif over.model is not None:
                model = over.model
            else:
                model = "fe" if k == n - 1 else "rom"
            nx = over.nx if over.nx is not None else _cells_along(
                f"subdomain.{k + 1}.nx", rect.width, hx)
            ny = over.ny if over.ny is not None else _cells_along(
                f"subdomain.{k + 1}.ny", rect.height, hy)
            r = over.r if over.r is not None else self.training_r
            lam = over.lam if over.lam is not None else self.training_lambda
            specs.append(SubdomainSpec(
                rect=rect, nx=nx, ny=ny, model=model,
                rom_dim=r if model == "rom" else None,
                rom_lambda=lam if model == "rom" else 0.0))
        return tuple(specs)

    def schwarz_config(self, force_model=None, t_end=None, tol=None,
                       max_iters=None, steps_per_window=None):
        return SchwarzConfig(
            subdomains=self.subdomain_specs(force_model),
            dt=self.dt,
            t_end=self.t_end if t_end is None else t_end,
            tol=self.tol if tol is None else tol,
            max_iters=self.max_iters if max_iters is None else max_iters,
            steps_per_window=(self.steps_per_window if steps_per_window is None
                              else steps_per_window))

    def resolved_field_times(self):
        return [self.t_end] if self.field_times is None else self.field_times

    def validate(self):
        if self.nx < 2 or self.ny < 2:
            raise ConfigurationError(
                f"global mesh must have at least 2 cells per direction, "
                f"got {self.nx}x{self.ny}")
        self.params()  # checks epsilon/sigma/b
        n_steps_for(0.0, self.t_end, self.dt)
        n_steps_for(0.0, self.training_t_end, self.dt)
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
        if self.mono_r < 1:
            raise ConfigurationError(f"mono.r must be >= 1, got {self.mono_r}")
        if self.mono_lambda is not None and self.mono_lambda < 0.0:
            raise ConfigurationError(
                f"mono.lambda must be >= 0, got {self.mono_lambda}")
        for t in self.resolved_field_times():
            if not (self.dt - 1e-12 <= t <= self.t_end + 1e-12):
                raise ConfigurationError(
                    f"output field time {t} outside (0, {self.t_end}]")
        self.subdomain_specs()  # checks layout geometry and divisibility
        return self


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
    """Read, validate, and default-fill an experiment configuration."""
    cfg = RunConfig()
    seen = set()
    collected = {}
    for lineno, key, value in _read_pairs(path):
        if key in seen:
            raise ConfigurationError(
                f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        sub = _SUBDOMAIN_KEY.match(key)
        if sub is not None:
            idx = int(sub.group(1)) - 1
            if idx < 0:
                raise ConfigurationError(
                    f"{path}:{lineno}: subdomain indices start at 1")
            over = cfg.overrides.setdefault(idx, SubdomainOverride())
            fld = sub.group(2)
            if fld == "rect":
                parts = [p.strip() for p in value.split(",")]
                if len(parts) != 4:
                    raise ConfigurationError(
                        f"{path}:{lineno}: rect needs 'x0,x1,y0,y1'")
                x0, x1, y0, y1 = (_as_float(key, p) for p in parts)
                over.rect = Rect(x0, x1, y0, y1)
            elif fld == "nx":
                over.nx = _as_int(key, value)
            elif fld == "ny":
                over.ny = _as_int(key, value)
            elif fld == "model":
                model = value.strip().lower()
                if model not in ("fe", "rom"):
                    raise ConfigurationError(
                        f"{path}:{lineno}: model must be fe or rom, "
                        f"got {value!r}")
                over.model = model
            elif fld == "r":
                over.r = _as_int(key, value)
            else:
                over.lam = _as_float(key, value)
            continue
        if key in _COLLECTED:
            collected[key] = _as_float(key, value)
        elif key in _KEYS:
            attr, parse = _KEYS[key]
            setattr(cfg, attr, parse(key, value))
        else:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown key {key!r}")
    b_angle = collected.get("problem.b_angle_degrees")
    b_given = "problem.bx" in collected or "problem.by" in collected
    if b_angle is not None and b_given:
        raise ConfigurationError(
            "give either problem.b_angle_degrees or problem.bx/by, not both")
    if b_angle is not None:
        rad = math.radians(b_angle)
        cfg.b = (math.cos(rad), math.sin(rad))
    elif b_given:
        cfg.b = (collected.get("problem.bx", 0.0),
                 collected.get("problem.by", 0.0))
    mesh_h = collected.get("mesh.h")
    if mesh_h is not None:
        if "mesh.nx" in seen or "mesh.ny" in seen:
            raise ConfigurationError("give either mesh.h or mesh.nx/ny")
        if mesh_h <= 0.0:
            raise ConfigurationError(f"mesh.h must be > 0, got {mesh_h}")
        cfg.nx = _cells_along("mesh.h", GLOBAL_RECT.width, mesh_h)
        cfg.ny = _cells_along("mesh.h", GLOBAL_RECT.height, mesh_h)
    return cfg.validate()
