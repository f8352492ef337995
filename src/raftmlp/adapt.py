"""Arbitrary-resolution inference via bicubic token-grid resampling.

Token-mixing parameters are sized for the grid the model was built for.
To run at another resolution, each token-mixing block is wrapped in a
bicubic sandwich: resample the runtime token grid to the build grid,
mix, resample back. The resample reads the [tokens, c] tensor as its
[h, w, c] grid and works in that layout, with no transpose. Channel
mixing and patch embedding are grid-size agnostic and run untouched.
A resample axis whose plan is the identity (same size, so taps
(0, 1, 0, 0) exactly) is skipped, so at the native resolution the
adapted forward pass is the plain one, bit for bit.

The image must be [3, h, w] in the model's dtype. It is first snapped
to the nearest multiple of the total level stride (round half up,
minimum one stride) so every level's unfolding tiles evenly. Each
extent may be at most ``MAX_EXTENT`` pixels; larger images are refused
before anything is resampled.
"""

from __future__ import annotations

from .models import Model, _check_image, _classify, _run_levels, token_mix
from .ops import _resize_grid, bicubic_resize
from .tensor import PatchGrid, ShapeError, Tensor, _is_int

# Activations grow with the pixel count: at 1024 x 1024 an f32 raftmlp-l
# forward_adapted peaks about 0.6 GB above the model's own weights.
MAX_EXTENT = 1024


def pre_embed_resize(image: Tensor, total_stride: int) -> Tensor:
    """Resize [c, h, w] so h and w are multiples of ``total_stride``.

    Each extent goes to its nearest stride multiple (ties round up), but
    never below one full stride. Inputs already on the grid are returned
    unchanged.
    """
    if image.rank != 3:
        raise ValueError(f"pre_embed_resize needs a [c, h, w] tensor, got {image.shape}")
    if not _is_int(total_stride) or total_stride < 1:
        raise ValueError(f"pre_embed_resize: total_stride must be an int >= 1, got {total_stride!r}")
    _, h, w = image.shape

    def snap(extent: int) -> int:
        return max(total_stride, (2 * extent + total_stride) // (2 * total_stride) * total_stride)

    new_h, new_w = snap(h), snap(w)
    if (new_h, new_w) == (h, w):
        return image
    return bicubic_resize(image, new_h, new_w)


def adapted_token_mixing(
    x: Tensor, params, run_grid: PatchGrid, train_grid: PatchGrid
) -> Tensor:
    """Token mixing inside a resample-to-train-grid sandwich.

    [tokens, c] in, [tokens, c] out on the runtime grid. When the grids
    coincide both resamples are skipped and this is the plain block.
    """
    c = x.shape[-1]
    run = (run_grid.h_prime, run_grid.w_prime)
    train = (train_grid.h_prime, train_grid.w_prime)
    tokens = _resize_grid(x, run + (c,), 0, *train)
    tokens = token_mix(tokens, params, train_grid)
    return _resize_grid(tokens, train + (c,), 0, *run)


def forward_adapted(model: Model, image: Tensor) -> Tensor:
    """Logits for a [3, h, w] image with 1 <= h, w <= ``MAX_EXTENT``.

    The image must have the model's dtype; anything else raises
    ``ShapeError`` before it is resampled.
    """
    _check_image(model, image, "forward_adapted")
    if max(image.shape[1:]) > MAX_EXTENT:
        raise ShapeError(
            f"forward_adapted: image {image.shape[1]}x{image.shape[2]} exceeds "
            f"the {MAX_EXTENT}-pixel cap on each extent"
        )
    image = pre_embed_resize(image, model.config.total_stride)
    return _classify(model, _run_levels(model, image, adapted_token_mixing)[-1])
