"""Parameter and multiply-accumulate accounting.

Two routes are reported side by side:

* closed-form expressions for the token-mixing MLP pair (conventional
  and raft variants), exact for parameters;
* exact counters that traverse a built model and tally every stored
  scalar (parameters) or every linear application, sites * d_in * d_out
  (MACs). Layer norms, GELU, residual adds, pooling and rearrangement
  cost zero MACs under this convention.

The closed-form MAC expressions are kept in the historical form
e * (h'w')**4 and e * r**4 * (h'**4 + w'**4). They are internally
consistent with each other (their ratio at h' = w' is exactly
2 * r**4 / h'**4) but are NOT comparable with the exact per-channel MAC
counter, which is the ground truth here; see the break-even report for
what the closed forms are good for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import RaftTokenMixingParams
from .models import Model
from .tensor import Tensor


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
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value}")


@dataclass(frozen=True)
class BreakevenRow:
    r: int
    params_token: int
    params_raft: int
    params_ratio: float
    params_advantage: bool
    macs_token: int
    macs_raft: int
    macs_ratio: float
    macs_advantage: bool


def breakeven_report(h_prime: int, w_prime: int, e: int, r_values) -> tuple:
    """Analytic cost of both mixing flavors across raft sizes."""
    rows = []
    pt = token_mixing_params_analytic(h_prime, w_prime, e)
    mt = token_mixing_macs_analytic(h_prime, w_prime, e)
    for r in r_values:
        pr = raft_mixing_params_analytic(h_prime, w_prime, e, r)
        mr = raft_mixing_macs_analytic(h_prime, w_prime, e, r)
        rows.append(
            BreakevenRow(
                r=r,
                params_token=pt,
                params_raft=pr,
                params_ratio=pr / pt,
                params_advantage=params_advantage(h_prime, w_prime, r),
                macs_token=mt,
                macs_raft=mr,
                macs_ratio=mr / mt,
                macs_advantage=macs_advantage(h_prime, w_prime, r),
            )
        )
    return tuple(rows)


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


def _params_of(*tensors: Tensor) -> int:
    return sum(t.size for t in tensors)


def _mixing_params(p) -> int:
    return _params_of(p.ln.gamma, p.ln.beta, p.fc1.weight, p.fc1.bias, p.fc2.weight, p.fc2.bias)


def _mixing_macs(p, sites: int) -> int:
    return sites * (p.fc1.d_in * p.fc1.d_out + p.fc2.d_in * p.fc2.d_out)


def _token_params(p) -> int:
    if isinstance(p, RaftTokenMixingParams):
        return _mixing_params(p.vertical) + _mixing_params(p.horizontal)
    return _mixing_params(p)


def _token_macs(p, grid) -> int:
    if isinstance(p, RaftTokenMixingParams):
        # After folding, each direction runs at (channels/r) * opposite-extent sites.
        o = grid.channels // p.raft_size
        return _mixing_macs(p.vertical, o * grid.w_prime) + _mixing_macs(
            p.horizontal, o * grid.h_prime
        )
    # Plain mixing transposes tokens and channels: one site per channel.
    return _mixing_macs(p, grid.channels)


def cost_report(model: Model, resolution=None) -> CostReport:
    """Exact per-module parameter and MAC counts.

    MACs at a non-native resolution follow the resolution adapter's
    semantics: embeddings and channel mixing run on the runtime token
    grid, token mixing on the grid the parameters were built for. The
    resolution must be divisible by the cumulative level strides.
    """
    config = model.config
    resolution = tuple(resolution) if resolution is not None else config.resolution
    run_grids = config.grids(resolution)
    native_grids = config.grids()

    rows = []
    for index, (level, run, native) in enumerate(
        zip(model.levels, run_grids, native_grids), start=1
    ):
        embed_params = _params_of(level.embed.projection.weight, level.embed.projection.bias)
        embed_macs = run.tokens * level.embed.projection.d_in * level.embed.projection.d_out
        rows.append(CostRow(f"level{index}.embed", embed_params, embed_macs))

        block_params = 0
        block_macs = 0
        for block in level.blocks:
            block_params += _token_params(block.token) + _mixing_params(block.channel)
            block_macs += _token_macs(block.token, native) + _mixing_macs(
                block.channel, run.tokens
            )
        rows.append(CostRow(f"level{index}.blocks", block_params, block_macs))

    if model.final_norm is not None:
        rows.append(
            CostRow("final_norm", _params_of(model.final_norm.gamma, model.final_norm.beta), 0)
        )
    rows.append(
        CostRow(
            "head",
            _params_of(model.head.weight, model.head.bias),
            model.head.d_in * model.head.d_out,
        )
    )
    return CostReport(name=config.name, resolution=resolution, rows=tuple(rows))
