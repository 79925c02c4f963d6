"""Minimal dense numerical kernel: a row-wise stable softmax, a deterministic
row-wise top-k mask, a row scatter-add, sorted distinct ids, the parameter
arena (ParamSet) with its in-place, cache-blocked Adam step with decoupled
weight decay (which can leave out the zero-gradient terms of the rows a
batch did not touch), and a central finite-difference oracle used to
certify every analytic gradient in this package.

The softmax and the top-k mask follow the storage of their input. On an
array stored keys-first, as empty_rows stores a large one (the rows-first
view t.T.reshape(shape) of a contiguous (n, rows) array t), they run as
elementwise passes over the n slabs of t, with the row sums in numpy's
pairwise order (slab_sum), and hand back their result in that layout: the
softmax in place (out is the input), the mask as a new such view. On any
other array they run rows-first. Both forms give the same bits. row_sums
gives np.sum(axis=-1)'s bits in either layout, so a caller can keep its
arrays keys-first between the kernels, as the attention stage does.

A ParamSet is the one holder of a model's tensors and Adam state; its
optimizer_state() is the form a checkpoint stores, and its constructor takes
that form back.

All arithmetic is float64; gradient certification at 1e-4 relative tolerance is
not reliable in float32.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import ShapeError


# Rows (the product of all but the last axis) from which empty_rows stores
# keys-first, as the contiguous (n, rows) form of its array; softmax_rows and
# top_k_mask_rows follow that storage, so this is where they switch: every
# step is then one elementwise pass over n slabs of `rows` values, where the
# rows-first form runs numpy's reductions and argsort over many short rows.
# On a 2-core Xeon (one BLAS thread, (B, 4, 10, 10) attention logits, heap
# kept as in training) the two forms cross near 160 rows for the softmax,
# 400 for the top-k mask and 350 for the two together. At 10240 rows (B=256)
# the rows-first forms take 914 µs for the softmax and 1677 µs for the mask.
# Keys-first, the softmax takes 230 µs in place in an empty_rows buffer,
# against 405 µs when it copied a C-order input in and its result back out;
# the mask takes 203 µs on the softmax's result, against 252 µs on a C-order
# one that it copied. So the kernels run keys-first only on storage that is
# already keys-first. Single-pair predict (H*S = 40 rows on perfbench's
# wide-topk) stays rows-first.
KEYS_FIRST_ROWS = 512


def _slabs(a: np.ndarray) -> np.ndarray:
    """The (n, rows) slabs of a, slab j holding entry j of every row: a view
    when a is stored keys-first (then contiguous) or is a contiguous
    rows-first array (then strided); a copy otherwise."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1]).T


def _slab_view(a: np.ndarray) -> np.ndarray | None:
    """a's own (n, rows) storage when a is stored keys-first, that is when a
    is t.T.reshape(a.shape) for a contiguous (n, rows) t, as the row
    kernels return it and empty_rows makes it; otherwise None, and at once
    for an array in C order (so a single-pair call pays no reshape)."""
    if a.flags.c_contiguous:
        return None
    t = _slabs(a)
    return t if t.flags.c_contiguous and np.may_share_memory(t, a) else None


def empty_rows(shape: tuple) -> np.ndarray:
    """An uninitialised float64 array of `shape`: from KEYS_FIRST_ROWS rows
    on stored keys-first, as the rows-first view of an (n, rows) array, and
    below in C order. This is the one place that picks the row kernels'
    form: softmax_rows works keys-first in place in such a buffer, and
    top_k_mask_rows and row_sums follow the layout they are handed."""
    rows = math.prod(shape[:-1])
    if rows >= KEYS_FIRST_ROWS:
        return np.empty((shape[-1], rows)).T.reshape(shape)
    return np.empty(shape)


def row_sums(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1, keepdims=True), with its bits in any layout:
    numpy's own sum when a is in C order, else slab_sum over a's slabs,
    which are contiguous when a is stored keys-first."""
    if a.flags.c_contiguous:
        return a.sum(axis=-1, keepdims=True)
    return slab_sum(_slabs(a)).reshape(a.shape[:-1] + (1,))


def slab_sum(t: np.ndarray) -> np.ndarray:
    """t[0] + t[1] + ... + t[n-1] over the first axis, in the order of
    numpy's pairwise sum, so that on a keys-first copy it gives, bit for bit,
    the row sums np.sum(axis=-1) gives on the rows. Below 8 terms numpy adds
    in order from +0. Up to 128 it keeps 8 partial sums, r[j] adding terms
    j, j + 8, ... of the leading multiple of 8, joins them as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), adds the rest in order
    and adds that to +0. Past 128 it sums the halves, split at a multiple of
    8, the same way, and adds the two. t is only read."""
    n = len(t)
    if n < 8:
        total = np.zeros(t.shape[1:])
        for term in t:
            total += term
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return slab_sum(t[:half]) + slab_sum(t[half:])
    end = n - n % 8
    r = t[:8]
    if end > 8:
        r = r.copy()
        for i in range(8, end, 8):
            r += t[i:i + 8]
    r = r[0::2] + r[1::2]
    total = r[0::2] + r[1::2]
    total = total[0] + total[1]
    for term in t[end:]:
        total += term
    total += 0.0
    return total


def softmax_rows(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise stable softmax over the last axis of an n-d array, written
    into `out` when given (which may be `logits` itself). The float
    operations are exp(z - max) / sum in that order either way, so `out`
    changes no bit.

    When `out` is `logits` and stored keys-first (empty_rows), it works
    keys-first in that storage: the row max is one elementwise maximum over
    the slabs, and slab_sum adds the slabs in numpy's order, so every value
    has the bits of the rows-first form. Every other call runs rows-first,
    and a result in `out` keeps `out`'s layout (row_sums reads either). A
    row max that is NaN sends a keys-first input rows-first too, because
    which NaN a maximum keeps depends on the order of its comparisons; it
    is then read through a C-order copy, as the maxima of any keys-first
    input are."""
    z = np.asarray(logits, dtype=np.float64)
    t = _slab_view(z)
    if t is not None:
        if out is z:
            peak = np.maximum.reduce(t, axis=0)
            if not np.isnan(peak).any():
                t -= peak
                np.exp(t, out=t)
                t /= slab_sum(t)
                return out
        z = np.ascontiguousarray(z)     # for the max's NaN, as on C order
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= row_sums(e)
    return e


def top_k_mask_rows(weights: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask over the last axis keeping each row's k largest entries
    (ties by smaller index, NaN last). Works on any leading batch shape. A k
    of at least the row length keeps every entry. On weights stored
    keys-first it is counted over their slabs (_top_k_keys_first) and is
    the rows-first view of an (n, rows) array; a row holding NaN sends them
    to the rows-first form. That form writes the mask through its (rows, n)
    view with one fancy assignment, which has less fixed cost than
    np.put_along_axis (about 20 against 32 µs on one (4,10,10) pair), and
    is C order."""
    if k < 1:
        raise ValueError("k must be positive")
    n = weights.shape[-1]
    if k >= n:
        return np.ones(weights.shape, dtype=bool)
    t = _slab_view(weights)
    keep = None if t is None else _top_k_keys_first(t, k)
    if keep is not None:
        return keep.T.reshape(weights.shape)
    r = math.prod(weights.shape[:-1])
    order = np.argsort(-weights, axis=-1, kind="stable").reshape(r, n)
    mask = np.zeros(weights.shape, dtype=bool)
    mask.reshape(r, n)[np.arange(r)[:, None], order[:, :k]] = True
    return mask


def _top_k_keys_first(t: np.ndarray, k: int) -> np.ndarray | None:
    """The (n, rows) top-k mask of the (n, rows) slabs t, by counting, over
    n passes, how many entries of its row beat each entry: entry i beats
    entry j when w_i > w_j, or w_i == w_j and i < j. The entries beaten
    fewer than k times are kept. Without NaN those counts are the positions
    of a stable descending sort, so the mask is the argsort's. A NaN is
    beaten by nothing, so a row holding one keeps more than k entries; then
    the total is off and this returns None, for the argsort to order the
    NaNs last."""
    n, r = t.shape
    beaten = np.zeros((n, r), dtype=np.min_scalar_type(n))
    hit = np.empty((n, r), dtype=bool)
    for i in range(n):
        np.greater(t[i], t[:i], out=hit[:i])
        hit[i] = False
        np.greater_equal(t[i], t[i + 1:], out=hit[i + 1:])
        beaten += hit.view(np.uint8)
    keep = np.less(beaten, k, out=hit)
    return keep if np.count_nonzero(keep) == r * k else None


def scatter_add_rows(rows: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Dense (num_rows, d) table holding the sum of values[i] (d,) in row
    rows[i], as one flattened bincount. Each element sums its contributions
    in input order starting from zero, as np.add.at into a zero table does,
    so the two agree bit for bit.

    A sum that starts from +0 never holds -0 (x + y == 0 rounds to +0 for
    any x, y not both -0), and adding +0 or -0 to anything but -0 leaves it
    unchanged. So a caller may leave out every contribution that is +0 or
    -0 (say, the padding tokens of a pooled field, which carry weight 0)
    and still get the same bits, as long as the others keep their order."""
    d = values.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1),
                       minlength=num_rows * d).reshape(num_rows, d)


# Elements per Adam block: the six 256 KiB slices the dense update touches fit
# in a 2 MiB L2. On a 2-core Xeon with 2 MiB of L2 per core, a BiasedMF step
# over a ~9k x 8k catalog at d=64 ran about 9% faster than at 16384 elements
# (four alternating in-process pairs, 300 steps each); the block changes no bit.
ADAM_BLOCK = 32768


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as np.unique gives
    them, by one sort and a comparison of neighbours; np.unique's hash path
    is many times slower on large int64 arrays."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, weight_decay: float = 0.0, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8,
              scratch: np.ndarray | None = None,
              rows: np.ndarray | None = None) -> None:
    """One Adam update with bias correction, in place on param, m and v; t is
    the number of this step (1 on the first). L2 is decoupled: lr *
    weight_decay * param (the value before the step) is subtracted after the
    Adam step, so the loss gradient stays independent of the regularizer.

    The arrays are walked in blocks of ADAM_BLOCK elements through the two
    rows of `scratch` (allocated when None), so no full-size temporary is
    made. Every element sees the same float operations in the same order as
    the textbook form: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    param - (lr*(m/c1)) / (sqrt(v/c2) + eps) - (lr*wd)*param.

    `rows`, when given, holds sorted distinct first-axis indices outside
    which `grad` is exactly zero (a superset of the touched rows is fine).
    The whole tensor is then swept without the gradient's five operations,
    m = b1*m and v = b2*v, and `grad` is not read there; the given rows are
    gathered before the sweep, updated in full, and written back. The
    result has the same bits as the dense update, because adding the +0
    terms of a zero gradient changes no moment that is not -0. Moments that
    start at +0 never become -0 when beta1 and beta2 are above 1/2, so only
    a hand-made optimizer state can break this, and then only in the sign
    of a zero."""
    if param.shape != grad.shape or param.shape != m.shape or param.shape != v.shape:
        raise ValueError("shape mismatch")
    if not all(a.flags.c_contiguous and a.dtype == np.float64 for a in (param, m, v)):
        raise ValueError("param, m and v must be contiguous float64 arrays")
    if scratch is None:
        scratch = np.empty((2, min(param.size, ADAM_BLOCK)))
    step = (1.0 - beta1 ** t, 1.0 - beta2 ** t, lr, weight_decay, beta1, beta2,
            eps, scratch)
    if rows is None:
        _adam_blocks(param.reshape(-1), grad.reshape(-1), m.reshape(-1),
                     v.reshape(-1), *step)
        return
    rows = _checked_rows(rows, param)
    shape = (len(param), math.prod(param.shape[1:]))
    p2, g2, m2, v2 = (a.reshape(shape) for a in (param, grad, m, v))
    pr, gr, mr, vr = p2[rows], g2[rows], m2[rows], v2[rows]
    _adam_blocks(param.reshape(-1), None, m.reshape(-1), v.reshape(-1), *step)
    _adam_blocks(pr.reshape(-1), gr.reshape(-1), mr.reshape(-1), vr.reshape(-1), *step)
    p2[rows], m2[rows], v2[rows] = pr, mr, vr


def _checked_rows(rows: np.ndarray, param: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows)
    if param.ndim == 0 or rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError("rows must be a 1-d integer array indexing the first axis")
    if rows.size and (rows[0] < 0 or rows[-1] >= len(param)
                      or not (rows[1:] > rows[:-1]).all()):
        raise ValueError(f"rows must be sorted, distinct and in [0, {len(param)})")
    return rows


def _adam_blocks(p, g, m, v, c1, c2, lr, weight_decay, beta1, beta2, eps,
                 scratch) -> None:
    """adam_step's blocked update of flat arrays; a `g` of None is a zero
    gradient, whose terms are left out."""
    lr_wd = lr * weight_decay
    for lo in range(0, p.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, p.size)
        pb, mb, vb = p[lo:hi], m[lo:hi], v[lo:hi]
        x, y = scratch[0, :hi - lo], scratch[1, :hi - lo]
        np.multiply(mb, beta1, out=mb)
        np.multiply(vb, beta2, out=vb)
        if g is not None:
            gb = g[lo:hi]
            np.multiply(gb, 1.0 - beta1, out=x)
            mb += x
            np.multiply(gb, 1.0 - beta2, out=x)
            x *= gb
            vb += x
        np.divide(vb, c2, out=y)
        np.sqrt(y, out=y)
        y += eps
        np.divide(mb, c1, out=x)
        x *= lr
        x /= y
        if weight_decay != 0.0:
            np.multiply(pb, lr_wd, out=y)
            pb -= x
            pb -= y
        else:
            pb -= x


class TensorViews(dict):
    """name -> view into a ParamSet vector. Assigning to a name copies the
    value into the existing view (the shape must match), so the vector stays
    the only storage and the optimizer keeps updating what readers see."""

    def __setitem__(self, name: str, value) -> None:
        view = self[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ShapeError(f"tensor {name!r} has shape {view.shape}, "
                             f"got {value.shape}")
        view[...] = value


class GradViews(TensorViews):
    """ParamSet.zero_grads' gradients: name -> a view into one vector `flat`,
    in which `offsets[name]` is where the view starts. Assigning to one of
    those names copies into its view (`grads[name] += g` leaves it as it
    is), so `flat` stays the gradient that adam_update reads; any other name
    (a table the caller builds whole, by a scatter) is stored as given."""

    def __init__(self, views: dict[str, np.ndarray], flat: np.ndarray):
        super().__init__(views)
        self.flat = flat
        self.offsets, pos = {}, 0
        for name, view in views.items():
            self.offsets[name] = pos
            pos += view.size

    def __setitem__(self, name: str, value) -> None:
        if name not in self.offsets:
            dict.__setitem__(self, name, value)
        elif value is not self[name]:
            super().__setitem__(name, value)


class ParamSet:
    """Named float64 tensors packed, in registration order, into one vector
    `flat`; `tensors[name]` is a view into it, so `flat` is also the order of
    flatten() and set_flat(). Adam's moments live in vectors `m` and `v` of
    the same layout (`moments[name]` gives the two views), with one step
    counter `t` for the whole set; `offsets[name]` is where a tensor starts in
    the three. A subclass names in EMBEDDINGS its tables indexed by id, which
    must come first in the arena, in that order: the optimizer updates them
    one by one and sweeps the tensors after them as one slice.

    `adam`, when given, is an optimizer state in the form optimizer_state()
    returns; it is copied into `m` and `v`."""

    EMBEDDINGS: tuple[str, ...] = ()

    def __init__(self, tensors: dict[str, np.ndarray], adam: dict | None = None):
        arrays = {k: np.asarray(a, dtype=np.float64) for k, a in tensors.items()}
        if tuple(arrays)[:len(self.EMBEDDINGS)] != self.EMBEDDINGS:
            raise ShapeError(f"the arena must start with the id tables "
                             f"{', '.join(self.EMBEDDINGS)}, in that order")
        self._shapes = {k: a.shape for k, a in arrays.items()}
        self.flat = np.concatenate([a.reshape(-1) for a in arrays.values()])
        sizes = [a.size for a in arrays.values()]
        self.offsets = dict(zip(arrays, np.cumsum([0] + sizes).tolist()))
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self._bind()
        if adam is not None:
            self._set_adam(adam)

    def _views(self, vec: np.ndarray, names=None) -> dict[str, np.ndarray]:
        """Views of consecutive slices of vec, shaped as the named tensors
        (all of them when names is None), in order."""
        out, pos = {}, 0
        for name in self._shapes if names is None else names:
            shape = self._shapes[name]
            size = math.prod(shape)
            out[name] = vec[pos:pos + size].reshape(shape)
            pos += size
        return out

    def _bind(self) -> None:
        self.tensors = TensorViews(self._views(self.flat))
        m, v = self._views(self.m), self._views(self.v)
        self.moments = {name: (m[name], v[name]) for name in self._shapes}
        self.scratch = np.empty((2, min(self.flat.size, ADAM_BLOCK)))

    def _set_adam(self, adam: dict) -> None:
        """Copy in a checkpoint-form optimizer state. Its moments must name
        the tensors in order; its step counts, which a checkpoint header
        keeps in sorted-key order, must name the same tensors and agree."""
        names = list(self._shapes)
        if (list(adam["m"]) != names or list(adam["v"]) != names
                or set(adam["t"]) != set(names)):
            raise ShapeError("optimizer state names do not match the tensors")
        t = adam["t"][names[0]]
        for name in names:
            if adam["t"][name] != t:
                raise ShapeError(f"optimizer state of {name!r} is out of step "
                                 "with the other tensors")
            m, v = self.moments[name]
            if (np.shape(adam["m"][name]) != m.shape
                    or np.shape(adam["v"][name]) != v.shape):
                raise ShapeError(f"optimizer state of {name!r} has the wrong shape")
            m[...] = adam["m"][name]
            v[...] = adam["v"][name]
        self.t = int(t)
        self.beta1, self.beta2, self.eps = adam["beta1"], adam["beta2"], adam["eps"]

    def optimizer_state(self) -> dict:
        """The optimizer state as a checkpoint stores it: beta1, beta2, eps,
        the step count `t` of every tensor, and per-tensor views `m` and `v`
        of the moment vectors, in tensor order."""
        return {"beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
                "t": dict.fromkeys(self._shapes, self.t),
                "m": self._views(self.m), "v": self._views(self.v)}

    def clone(self):
        """Independent copy: new vectors, other attributes shared."""
        other = copy.copy(self)
        other.flat, other.m, other.v = self.flat.copy(), self.m.copy(), self.v.copy()
        other._bind()
        return other

    def zero_grads(self, skip=()) -> GradViews:
        """A zero gradient per tensor, leaving out the names in `skip` (the
        tables whose gradient the caller builds by a scatter), as views into
        one zero vector laid out like the arena without them."""
        names = [k for k in self._shapes if k not in skip]
        flat = np.zeros(sum(math.prod(self._shapes[k]) for k in names))
        return GradViews(self._views(flat, names), flat)

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        if np.size(vec) != self.flat.size:
            raise ShapeError("flat vector length does not match parameter count")
        self.flat[...] = np.reshape(vec, -1)


def finite_diff_gradient(scalar_fn, point, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of scalar_fn at point:
    (f(x + eps*e_i) - f(x - eps*e_i)) / (2*eps) per coordinate."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x0 = np.asarray(point, dtype=np.float64).copy()
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        x = x0.copy()
        x[i] = x0[i] + eps
        f_plus = scalar_fn(x)
        x[i] = x0[i] - eps
        f_minus = scalar_fn(x)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |a|, |n|), a scale-safe relative error."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
