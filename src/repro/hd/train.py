"""HD training loops: single-pass bundling and Eq. (5) retraining.

Single-pass training (Eq. 3) simply bundles encodings per class.
*Retraining* (Eq. 5) then iterates over the training set: every
mispredicted encoding is added to its true class and subtracted from the
class that wrongly won.  The paper uses retraining to recover the accuracy
lost to dimension pruning (Fig. 4) and reports that 1–2 epochs suffice.

Two update disciplines are provided:

* ``mode="batch"`` — predictions for the whole epoch are computed against
  the epoch-start model and all updates applied at once.  Fast and fully
  vectorized; this is the default used by the experiment runners.
* ``mode="online"`` — the classic per-sample rule where each update is
  visible to the next prediction; closer to the original HD literature,
  kept for fidelity and ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hd.encoder import Encoder
from repro.hd.model import HDModel, add_rows
from repro.hd.quantize import EncodingQuantizer, get_quantizer
from repro.utils.rng import RngLike, ensure_generator
from repro.utils.validation import check_2d, check_labels, check_positive_int

__all__ = ["RetrainHistory", "fit_hd", "retrain", "retrain_streamed"]


@dataclass
class RetrainHistory:
    """Per-epoch record of a retraining run.

    Attributes
    ----------
    train_accuracy:
        Accuracy on the retraining set, *before* each epoch's update (so
        entry 0 is the pruned/virgin model), plus one final post-update
        entry.
    eval_accuracy:
        Same schedule on the held-out set, when one was supplied.
    best_epoch:
        Index (into ``eval_accuracy`` or ``train_accuracy``) of the best
        observed model.
    best_accuracy:
        The accuracy at ``best_epoch``.
    """

    train_accuracy: list[float] = field(default_factory=list)
    eval_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_accuracy: float = 0.0

    @property
    def n_epochs(self) -> int:
        """Number of update epochs actually performed."""
        return max(0, len(self.train_accuracy) - 1)


def fit_hd(
    encoder: Encoder,
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    quantizer: EncodingQuantizer | str | None = None,
) -> HDModel:
    """Encode ``X`` and bundle per class — Eq. (3), optionally Eq. (13).

    When a quantizer is given the encodings are quantized *before*
    bundling, which is exactly the paper's encoding-quantized training:
    the resulting class hypervectors are still full precision, only with
    reduced dynamic range.
    """
    q = get_quantizer(quantizer)
    H = q(encoder.encode(X))
    return HDModel.from_encodings(H, y, n_classes)


def _epoch_update_batch(
    model: HDModel, H: np.ndarray, y: np.ndarray
) -> int:
    """One batch-mode Eq. (5) epoch; returns number of mispredictions."""
    preds = model.predict(H)
    wrong = preds != y
    n_wrong = int(wrong.sum())
    if n_wrong:
        model.bundle(H[wrong], y[wrong])
        model.unbundle(H[wrong], preds[wrong])
    return n_wrong


def _epoch_update_online(
    model: HDModel, H: np.ndarray, y: np.ndarray, order: np.ndarray
) -> int:
    """One online Eq. (5) epoch; returns number of mispredictions."""
    n_wrong = 0
    for i in order:
        h = H[i : i + 1]
        pred = int(model.predict(h)[0])
        if pred != y[i]:
            n_wrong += 1
            model.bundle(h, y[i : i + 1])
            model.unbundle(h, np.array([pred]))
    return n_wrong


def retrain(
    model: HDModel,
    encodings: np.ndarray,
    labels: np.ndarray,
    *,
    epochs: int = 5,
    mode: str = "batch",
    keep_mask: np.ndarray | None = None,
    eval_encodings: np.ndarray | None = None,
    eval_labels: np.ndarray | None = None,
    rng: RngLike = None,
) -> tuple[HDModel, RetrainHistory]:
    """Iterative Eq. (5) retraining; returns the *best* model seen.

    Parameters
    ----------
    model:
        Starting model (not mutated).
    encodings, labels:
        Pre-encoded training data.  Pre-encoding once outside the loop
        mirrors the paper's observation that retraining is cheap because
        the expensive encode step is not repeated.
    epochs:
        Maximum update epochs (Fig. 4 uses 20 to show saturation).
    mode:
        ``"batch"`` or ``"online"`` (see module docstring).
    keep_mask:
        Optional boolean ``(d_hv,)`` mask of *retained* dimensions.  When
        the model was pruned, updates must not resurrect pruned
        dimensions ("perpetually remain zero", Section III-B.1); the mask
        is applied to the encodings so Eq. (5) only touches live
        dimensions.
    eval_encodings, eval_labels:
        Optional held-out set used to select the best epoch.
    rng:
        Shuffle randomness for online mode.

    Returns
    -------
    (HDModel, RetrainHistory)
        Best-scoring model (on eval if given, else train) and the history.
    """
    if mode not in ("batch", "online"):
        raise ValueError(f"mode must be 'batch' or 'online', got {mode!r}")
    check_positive_int(epochs, "epochs")
    H = check_2d(encodings, "encodings", n_cols=model.d_hv).astype(np.float64)
    y = check_labels(labels, "labels", n_classes=model.n_classes)
    if keep_mask is not None:
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (model.d_hv,):
            raise ValueError(
                f"keep_mask must have shape ({model.d_hv},), got {keep.shape}"
            )
        H = H * keep
    has_eval = eval_encodings is not None and eval_labels is not None
    if has_eval:
        He = check_2d(eval_encodings, "eval_encodings", n_cols=model.d_hv)
        if keep_mask is not None:
            He = He * keep
        ye = check_labels(eval_labels, "eval_labels", n_classes=model.n_classes)

    gen = ensure_generator(rng)
    work = model.copy()
    history = RetrainHistory()

    def _record() -> float:
        train_acc = work.accuracy(H, y)
        history.train_accuracy.append(train_acc)
        if has_eval:
            eval_acc = work.accuracy(He, ye)
            history.eval_accuracy.append(eval_acc)
            return eval_acc
        return train_acc

    best = work.copy()
    best_score = _record()
    history.best_epoch = 0
    history.best_accuracy = best_score

    for epoch in range(1, epochs + 1):
        if mode == "batch":
            n_wrong = _epoch_update_batch(work, H, y)
        else:
            order = gen.permutation(H.shape[0])
            n_wrong = _epoch_update_online(work, H, y, order)
        score = _record()
        if score > best_score:
            best_score = score
            best = work.copy()
            history.best_epoch = epoch
            history.best_accuracy = score
        if n_wrong == 0:
            break

    history.best_accuracy = best_score
    return best, history


def _masked_chunks(store, keep: np.ndarray | None):
    if keep is None:
        yield from store.iter_chunks()
    else:
        for sl, H in store.iter_chunks():
            yield sl, H * keep


def _streamed_epoch_pass(
    model: HDModel, store, y: np.ndarray, keep: np.ndarray | None
) -> tuple[float, int, np.ndarray]:
    """One streaming pass: accuracy of ``model``, plus its Eq. (5) update.

    Predictions for every chunk are taken against the *same* model state
    (batch-mode semantics); the update is accumulated into a
    ``(n_classes, d_hv)`` delta and applied by the caller, so no more
    than one dense chunk is alive at a time.
    """
    delta = np.zeros((model.n_classes, model.d_hv), dtype=np.float64)
    n_wrong = 0
    n_correct = 0
    for sl, H in _masked_chunks(store, keep):
        preds = model.predict(H)
        y_chunk = y[sl]
        wrong = preds != y_chunk
        n_wrong += int(wrong.sum())
        n_correct += int((~wrong).sum())
        if wrong.any():
            Hw = H[wrong]
            add_rows(delta, y_chunk[wrong], Hw)
            add_rows(delta, preds[wrong], Hw, op=np.subtract)
    total = n_wrong + n_correct
    return n_correct / total, n_wrong, delta


def _streamed_accuracy(
    model: HDModel, store, y: np.ndarray, keep: np.ndarray | None
) -> float:
    correct = 0
    for sl, H in _masked_chunks(store, keep):
        correct += int((model.predict(H) == y[sl]).sum())
    return correct / y.shape[0]


def retrain_streamed(
    model: HDModel,
    store,
    labels: np.ndarray,
    *,
    epochs: int = 5,
    keep_mask: np.ndarray | None = None,
    eval_store=None,
    eval_labels: np.ndarray | None = None,
) -> tuple[HDModel, RetrainHistory]:
    """Batch-mode Eq. (5) retraining over cached encoding chunks.

    The streaming twin of :func:`retrain` (``mode="batch"``): instead of
    a materialized ``(n, d_hv)`` encoding matrix it replays an
    :class:`~repro.hd.encode_pipeline.EncodedChunkStore` (or anything
    with repeatable ``iter_chunks()``), holding one dense chunk at a
    time.  On quantized (integer-valued) encodings the result — model,
    history, best-epoch selection — is identical to :func:`retrain`,
    because every dot product and class-store update is integer-exact
    regardless of accumulation order.  Each epoch also folds the
    accuracy pass and the update pass into one streaming pass.

    Parameters
    ----------
    model:
        Starting model (not mutated).
    store:
        Replayable chunk source for the retraining encodings.
    labels:
        Labels aligned with the store's row slices.
    epochs, keep_mask:
        As in :func:`retrain`.
    eval_store, eval_labels:
        Optional held-out chunk source selecting the best epoch.
    """
    check_positive_int(epochs, "epochs")
    y = check_labels(labels, "labels", n_classes=model.n_classes)
    if getattr(store, "n_rows", y.shape[0]) != y.shape[0]:
        raise ValueError(
            f"store has {store.n_rows} rows but {y.shape[0]} labels"
        )
    keep = None
    if keep_mask is not None:
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (model.d_hv,):
            raise ValueError(
                f"keep_mask must have shape ({model.d_hv},), got {keep.shape}"
            )
    has_eval = eval_store is not None and eval_labels is not None
    if has_eval:
        ye = check_labels(eval_labels, "eval_labels", n_classes=model.n_classes)
        if getattr(eval_store, "n_rows", ye.shape[0]) != ye.shape[0]:
            raise ValueError(
                f"eval_store has {eval_store.n_rows} rows but "
                f"{ye.shape[0]} eval_labels"
            )

    work = model.copy()
    history = RetrainHistory()

    def _record(train_acc: float) -> float:
        history.train_accuracy.append(train_acc)
        if has_eval:
            eval_acc = _streamed_accuracy(work, eval_store, ye, keep)
            history.eval_accuracy.append(eval_acc)
            return eval_acc
        return train_acc

    best = work.copy()
    best_score = -np.inf
    for epoch in range(epochs + 1):
        train_acc, n_wrong, delta = _streamed_epoch_pass(work, store, y, keep)
        score = _record(train_acc)
        if score > best_score:
            best_score = score
            best = work.copy()
            history.best_epoch = epoch
            history.best_accuracy = score
        if epoch == epochs:
            break
        if n_wrong == 0:
            # Mirror retrain(): the epoch that discovers a clean sweep
            # still records its (unchanged) accuracies before stopping.
            _record(train_acc)
            break
        work.class_hvs += delta
        work._invalidate()

    history.best_accuracy = best_score
    return best, history
