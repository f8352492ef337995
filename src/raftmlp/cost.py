"""Parameter and multiply-accumulate accounting.

Two routes are reported side by side:

* closed-form expressions for the token-mixing MLP pair (conventional
  and raft variants), exact for parameters;
* exact counters that traverse a built model and tally every stored
  scalar (parameters) or every linear application, sites * d_in * d_out
  (MACs). A mixing MLP over a grid of tokens * channels values runs at
  tokens * channels / d_in sites, whatever move feeds it. Layer norms,
  GELU, residual adds, pooling and rearrangement cost zero MACs under
  this convention.

The closed-form MAC expressions are kept in the historical form
e * (h'w')**4 and e * r**4 * (h'**4 + w'**4). They are internally
consistent with each other (their ratio at h' = w' is exactly
2 * r**4 / h'**4) but are NOT comparable with the exact per-channel MAC
counter, which is the ground truth here. ``params_advantage`` and
``macs_advantage`` give the break-even raft sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import RaftTokenMixingParams
from .models import Model, named_parameters
from .tensor import _is_int


def token_mixing_params_analytic(h_prime: int, w_prime: int, e: int) -> int:
    """Parameters of a conventional token-mixing MLP pair with biases.

    With s = h'w': fc1 is s -> es (weight s*es, bias es), fc2 is es -> s
    (weight es*s, bias s), so the total is s * (2es + e + 1). Layer norm
    parameters are not included.
    """
    _positive(h_prime=h_prime, w_prime=w_prime, e=e)
    s = h_prime * w_prime
    return s * (2 * e * s + e + 1)


def raft_mixing_params_analytic(h_prime: int, w_prime: int, e: int, r: int) -> int:
    """Parameters of the two directional MLP pairs of a raft mixing block.

    Each direction is the 1-D formula at length r*h' resp. r*w':
    h'r(2eh'r + e + 1) + w'r(2ew'r + e + 1). Layer norms excluded.
    """
    _positive(h_prime=h_prime, w_prime=w_prime, e=e, r=r)
    a, b = h_prime * r, w_prime * r
    return a * (2 * e * a + e + 1) + b * (2 * e * b + e + 1)


def token_mixing_macs_analytic(h_prime: int, w_prime: int, e: int) -> int:
    """Closed-form MAC expression e * (h'w')**4 for conventional mixing."""
    _positive(h_prime=h_prime, w_prime=w_prime, e=e)
    return e * (h_prime * w_prime) ** 4


def raft_mixing_macs_analytic(h_prime: int, w_prime: int, e: int, r: int) -> int:
    """Closed-form MAC expression e * r**4 * (h'**4 + w'**4) for raft mixing."""
    _positive(h_prime=h_prime, w_prime=w_prime, e=e, r=r)
    return e * r**4 * (h_prime**4 + w_prime**4)


def params_advantage(h_prime: int, w_prime: int, r: int) -> bool:
    """True when raft mixing needs strictly fewer parameters (dominant terms).

    Integer-exact form of r < h'/sqrt(2) generalized to rectangles:
    r**2 * (h'**2 + w'**2) < (h'w')**2.
    """
    _positive(h_prime=h_prime, w_prime=w_prime, r=r)
    return r * r * (h_prime**2 + w_prime**2) < (h_prime * w_prime) ** 2


def macs_advantage(h_prime: int, w_prime: int, r: int) -> bool:
    """True when the closed-form MAC expressions favor raft mixing.

    Integer-exact form of r < h' / 2**(1/4) generalized to rectangles:
    r**4 * (h'**4 + w'**4) < (h'w')**4.
    """
    _positive(h_prime=h_prime, w_prime=w_prime, r=r)
    return r**4 * (h_prime**4 + w_prime**4) < (h_prime * w_prime) ** 4


def _positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if not _is_int(value) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


# ---------------------------------------------------------------------------
# Exact counters over built models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    macs: int


@dataclass(frozen=True)
class CostReport:
    """Per-module exact counts plus the configuration they were taken at."""

    name: str
    resolution: tuple
    rows: tuple

    @property
    def params_total(self) -> int:
        return sum(row.params for row in self.rows)

    @property
    def macs_total(self) -> int:
        return sum(row.macs for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "resolution": list(self.resolution),
            "rows": [
                {"module": r.name, "params": r.params, "macs": r.macs} for r in self.rows
            ],
            "totals": {"params": self.params_total, "macs": self.macs_total},
        }


def _params_under(sizes: dict, module: str) -> int:
    """Summed sizes of the parameters under a row's name prefix.

    ``level1.blocks`` covers ``level1.block*``; other rows are the prefix.
    """
    prefix = module[:-1] if module.endswith(".blocks") else module
    return sum(n for name, n in sizes.items() if name.startswith(prefix))


def _mixing_macs(p, sites: int) -> int:
    return sites * (p.fc1.d_in * p.fc1.d_out + p.fc2.d_in * p.fc2.d_out)


def _grid_macs(p, grid) -> int:
    """MACs of a mixing block's MLPs over ``grid``: one site per ``fc1.d_in`` of its values."""
    mlps = (p.vertical, p.horizontal) if isinstance(p, RaftTokenMixingParams) else (p,)
    return sum(_mixing_macs(m, grid.tokens * grid.channels // m.fc1.d_in) for m in mlps)


def cost_report(model: Model, resolution=None) -> CostReport:
    """Exact per-module parameter and MAC counts.

    MACs at a non-native resolution follow the resolution adapter's
    semantics: embeddings and channel mixing run on the runtime token
    grid, token mixing on the grid the parameters were built for. The
    resolution must be one ``ModelConfig`` accepts: two ints >= 1 that
    the cumulative level strides divide.
    """
    config = model.config
    run_grids = config.grids(resolution)
    resolution = config.resolution if resolution is None else tuple(resolution)
    native_grids = config.grids()

    macs = {}
    for index, (level, run, native) in enumerate(
        zip(model.levels, run_grids, native_grids), start=1
    ):
        proj = level.embed.projection
        macs[f"level{index}.embed"] = run.tokens * proj.d_in * proj.d_out
        macs[f"level{index}.blocks"] = sum(
            _grid_macs(block.token, native) + _grid_macs(block.channel, run)
            for block in level.blocks
        )
    if model.final_norm is not None:
        macs["final_norm"] = 0
    macs["head"] = model.head.d_in * model.head.d_out

    sizes = {name: tensor.size for name, tensor in named_parameters(model).items()}
    rows = tuple(CostRow(module, _params_under(sizes, module), n) for module, n in macs.items())
    return CostReport(name=config.name, resolution=resolution, rows=rows)
