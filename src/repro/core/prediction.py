"""Linear prediction of trajectory points and AR(k) autocorrelation features.

Equation 1/2 of the paper predicts the point of trajectory ``i`` at time ``t``
as a linear combination of its previous ``k`` *reconstructed* points, with the
coefficients shared by all trajectories of the partition:

    prediction_i(t) = sum_j P_j[t] * reconstruction_i(t - j)

The coefficients ``P_j[t]`` are obtained by least squares over the
trajectories currently in the partition.  The same machinery doubles as the
AR(k) feature extractor used by the autocorrelation-based partitioning
(Section 3.2.1): per-trajectory AR coefficients quantify how each trajectory's
recent motion relates to its current position.
"""

from __future__ import annotations

import numpy as np


class LinearPredictor:
    """Shared linear predictor of order ``k`` for a group of trajectories.

    Parameters
    ----------
    order:
        Number of lagged reconstructed points used for prediction
        (``k`` in the paper, default 2).
    ridge:
        Tikhonov regularisation added to the normal equations for numerical
        stability when histories are nearly collinear (straight-line motion).
    """

    def __init__(self, order: int = 2, ridge: float = 1e-8) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = int(order)
        self.ridge = float(ridge)
        #: Current coefficients, shape ``(order,)``; ``None`` until fitted.
        self.coefficients: np.ndarray | None = None

    def fit(self, history: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Fit coefficients from reconstructed history to current targets.

        Parameters
        ----------
        history:
            Array of shape ``(n, order, 2)``: for each of the ``n`` points the
            previous ``order`` reconstructed positions, most recent first
            (``history[:, 0]`` is the point at ``t-1``).
        targets:
            Array of shape ``(n, 2)``: the true positions at time ``t``.

        Returns
        -------
        numpy.ndarray
            The fitted coefficients ``P_1..P_k`` (shape ``(order,)``).  Both
            coordinates share the same scalar coefficients, matching the
            paper's formulation where ``P_j[t]`` weights whole 2-D points.
        """
        history = np.asarray(history, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if history.ndim != 3 or history.shape[1] != self.order or history.shape[2] != 2:
            raise ValueError(f"history must have shape (n, {self.order}, 2), got {history.shape}")
        if targets.shape != (history.shape[0], 2):
            raise ValueError("targets must have shape (n, 2) aligned with history")
        if len(targets) == 0:
            self.coefficients = self._default_coefficients()
            return self.coefficients

        # Stack the x and y equations: each sample contributes two rows.
        design = np.concatenate([history[:, :, 0], history[:, :, 1]], axis=0)
        response = np.concatenate([targets[:, 0], targets[:, 1]], axis=0)
        gram = design.T @ design + self.ridge * np.eye(self.order)
        rhs = design.T @ response
        try:
            coeffs = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            coeffs = self._default_coefficients()
        if not np.all(np.isfinite(coeffs)):
            coeffs = self._default_coefficients()
        self.coefficients = coeffs
        return coeffs

    def predict(self, history: np.ndarray) -> np.ndarray:
        """Predict current positions from reconstructed history.

        ``history`` has shape ``(n, order, 2)``; the result has shape
        ``(n, 2)``.  If the predictor has not been fitted a persistence
        default (repeat the last point) is used.
        """
        history = np.asarray(history, dtype=float)
        coeffs = (self.coefficients if self.coefficients is not None
                  else self._default_coefficients())
        return np.einsum("k,nkd->nd", coeffs, history)

    def _default_coefficients(self) -> np.ndarray:
        """Persistence model: predict the previous reconstructed point."""
        coeffs = np.zeros(self.order, dtype=float)
        coeffs[0] = 1.0
        return coeffs


def estimate_ar_coefficients(histories: np.ndarray, targets: np.ndarray,
                             ridge: float = 1e-6) -> np.ndarray:
    """Per-trajectory AR(k) coefficients used as autocorrelation features.

    For each trajectory point the paper derives the parameters of an AR(k)
    process relating the current point to its ``k`` lagged points, and groups
    points with similar coefficients into the same partition.  With only one
    observation per trajectory at time ``t`` the per-point least-squares
    problem is underdetermined, so (as is standard) we use the projection of
    the target onto the lagged points, i.e. a normalised correlation feature:

        a_j = <target, history_j> / (‖history_j‖² + ridge)

    This yields one ``k``-vector per trajectory that is scale-aware and cheap
    to compute, and that coincides with the least-squares AR solution when the
    lags are orthogonal.

    Parameters
    ----------
    histories:
        Array of shape ``(n, k, 2)`` of lagged (reconstructed) positions.
    targets:
        Array of shape ``(n, 2)`` of current positions.

    Returns
    -------
    numpy.ndarray of shape ``(n, k)``.
    """
    histories = np.asarray(histories, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if histories.ndim != 3 or histories.shape[2] != 2:
        raise ValueError(f"histories must have shape (n, k, 2), got {histories.shape}")
    if targets.shape != (histories.shape[0], 2):
        raise ValueError("targets must have shape (n, 2) aligned with histories")
    numerator = np.einsum("nd,nkd->nk", targets, histories)
    denominator = np.einsum("nkd,nkd->nk", histories, histories) + ridge
    return numerator / denominator


class ReconstructionHistory:
    """Each trajectory's last ``order`` base reconstructions, most recent first.

    This is the state Equation 1 rolls forward, shared by the quantizer at fit
    time and by :meth:`~repro.core.summary.TrajectorySummary.roll_forward`
    at load time.  :attr:`points` has shape ``(num_trajectories, order, 2)``
    and is kept padded: lags a trajectory has not reached yet repeat its
    oldest stored reconstruction, and a trajectory with no history is all
    zeros, so it predicts zero (the paper's ``P_j[t] = 0`` for ``t <= k``).
    The lags are the trajectory's last ``order`` appearances, so a gap in
    its timestamps does not break the history.

    Parameters
    ----------
    traj_ids:
        Sorted IDs of every trajectory that will be pushed.
    order:
        Number of lags kept (``k``).
    """

    def __init__(self, traj_ids, order: int) -> None:
        self.traj_ids = np.asarray(traj_ids, dtype=np.int64)
        self.order = int(order)
        self.points = np.zeros((len(self.traj_ids), self.order, 2), dtype=float)
        #: Number of stored lags per trajectory, at most ``order``.
        self.count = np.zeros(len(self.traj_ids), dtype=np.int64)

    def slots(self, traj_ids: np.ndarray) -> np.ndarray:
        """Rows of :attr:`points` holding the given trajectories."""
        return np.searchsorted(self.traj_ids, traj_ids)

    def push(self, slots: np.ndarray, reconstructions: np.ndarray) -> None:
        """Append one reconstruction per slot (each slot at most once)."""
        self.points[slots, 1:] = self.points[slots, :-1]
        self.points[slots, 0] = reconstructions
        fresh = self.count[slots] == 0
        self.points[slots[fresh]] = reconstructions[fresh, None, :]
        self.count[slots] = np.minimum(self.count[slots] + 1, self.order)


def predict_slice(history: np.ndarray, coefficients: dict[int, np.ndarray],
                  groups: dict[int, np.ndarray]) -> np.ndarray:
    """Equation 1 for one timestamp, partition by partition.

    ``history`` is the padded ``(n, order, 2)`` history of the timestamp's
    points, ``coefficients`` maps partition ID -> ``P_1..P_k`` and ``groups``
    maps partition ID -> the rows of ``history`` in that partition.  Rows in
    no group predict zero.  Adding each point's codeword to the returned
    ``(n, 2)`` predictions gives its ε₁-bounded reconstruction.
    """
    predictions = np.zeros((len(history), 2), dtype=float)
    for pid, rows in groups.items():
        predictions[rows] = np.einsum("k,nkd->nd", coefficients[pid], history[rows])
    return predictions
