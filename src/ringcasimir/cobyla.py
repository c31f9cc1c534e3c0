"""Powell's COBYLA without constraints, with PRIMA's rules.

A numpy-only port of the unconstrained path of scipy 1.17.1's
``scipy/_lib/pyprima/cobyla`` (Zhang, doi:10.5281/zenodo.8052654; Powell
1994) at the settings of ``scipy.optimize.minimize(method="COBYLA")``.
Every rounding that a step depends on is pyprima's, so the same points
are evaluated, bit for bit, and the run stops for the same reason: each
matrix product, dot product, sum and hypot is pyprima's numpy call
(OpenBLAS fuses multiply-adds even at n = 2), and only exact elementwise
work runs on Python floats.  Without constraints the penalty is EPS and
every constraint term 0, so PRIMA's penalty update and filter drop out.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cobyla"]

EPS = float(np.finfo(float).eps)
REALMIN = float(np.finfo(float).tiny)
REALMAX = float(np.finfo(float).max)
FUNCMAX = 1e30  # the moderated extreme barrier: NaN and larger values become this
ETA1, ETA2, GAMMA1, GAMMA2, GAMMA3 = 0.1, (0.1 + 2) / 3, 0.5, 2.0, 1.5
UNSCALED = math.sqrt(REALMIN), math.sqrt(REALMAX / 2.1)  # planerot's safe |x| range


def cobyla(x0: np.ndarray, rhoend: float, maxfun: int):
    """COBYLA from ``x0`` as a generator: it yields each point to evaluate,
    takes the value by ``send`` and returns True at the small-radius stop
    (rho has reached ``rhoend``), False at any other.  A ``maxfun`` below
    n + 2 counts as n + 2, as in PRIMA; the caller cuts a smaller budget by
    sending no more values."""
    n = x0.size
    if abs(1.0 - rhoend) < 1.0e2 * EPS:  # PRIMA equates radii this close
        rhoend = 1.0
    maxfun, tiny = max(maxfun, n + 2), (1e-4 * rhoend) * (1e-4 * rhoend)
    sim, eye = np.eye(n, n + 1), np.eye(n)  # sim: vertices minus the pole, then the pole
    dirs, pole = sim[:, :n], sim[:, n]  # views: every update writes sim in place
    pole[:] = x0
    fval = np.full(n + 1, REALMAX)
    fval[n] = yield from _evaluate(x0)
    for j in range(n):
        x = pole.copy()
        x[j] += 1.0
        fval[j] = yield from _evaluate(x)
        if fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            pole[:] = x
            sim[j, :j + 1] = -1.0
    # The pole is the best vertex.  PRIMA checks the inverse again at each
    # iteration and reduction of rho, on the simplex last checked: same verdict.
    simi, ok = _settle(np.linalg.inv(dirs), dirs, eye)
    if not ok:  # damaging rounding
        return False
    nf, rho, delta, distsq = n + 1, 1.0, 1.0, np.zeros(n + 1)
    for _ in range(10 * maxfun):
        adequate_geo = ((dirs * dirs).sum(axis=0) <= 4 * (delta * delta)).all()
        g = (fval[:n] - fval[n]) @ simi
        d = _trstlp(g, delta, eye)
        dnorm = min(delta, math.sqrt(d.dot(d)))  # np.linalg.norm(d)
        prerem = -np.dot(d, g)
        shortd, trfail = dnorm <= 0.1 * rho, not (prerem > 1.0e-6 * EPS * rho)
        if shortd or trfail:
            delta *= 0.1
            if delta <= GAMMA3 * rho:
                delta = rho
        else:
            x = pole + d
            f, evaluated = yield from _value_at(x, dirs, pole, fval, distsq, tiny)
            nf += evaluated
            actrem = fval[n] - f
            ratio = actrem / prerem
            if ratio <= ETA1:
                delta = GAMMA1 * dnorm
            else:
                delta = max(GAMMA1 * delta, dnorm if ratio <= ETA2 else GAMMA2 * dnorm)
            if delta <= GAMMA3 * rho:
                delta = rho
            jdrop_tr = _setdrop_tr(actrem > 0, d, delta, rho, dirs, simi)
            simi, ok = _updatexfc(jdrop_tr, d, f, fval, dirs, pole, simi, eye)
            if not ok or nf >= maxfun or not np.isfinite(x).all():
                return False
        # ratio and jdrop_tr are read only after a tried step has set them
        bad_trstep = shortd or trfail or ratio <= 0 or jdrop_tr is None
        if bad_trstep and not adequate_geo and \
                not ((lengths := (dirs * dirs).sum(axis=0)) <= 4 * (delta * delta)).all():
            jdrop_geo = lengths.argmax()
            d = simi[jdrop_geo, :]
            d = (delta / 2) * (d / math.sqrt(d.dot(d)))
            if np.dot(d, (fval[:n] - fval[n]) @ simi) > 0:  # PRIMA's -d.g < d.g
                d *= -1
            x = pole + d
            f, evaluated = yield from _value_at(x, dirs, pole, fval, distsq, tiny)
            nf += evaluated
            simi, ok = _updatexfc(jdrop_geo, d, f, fval, dirs, pole, simi, eye)
            if not ok or nf >= maxfun or not np.isfinite(x).all():
                return False
        if bad_trstep and adequate_geo and max(delta, dnorm) <= rho:
            if rho <= rhoend:
                break
            rho_ratio = rho / rhoend
            reduced = (0.1 * rho if rho_ratio > 250 else rhoend if rho_ratio <= 16
                       else math.sqrt(rho_ratio) * rhoend)
            delta, rho = max(0.5 * rho, reduced), reduced
    else:
        return False  # 10 maxfun trust-region iterations
    # PRIMA tries a final short step here.  delta >= rho whenever a step is computed, and
    # _trstlp's step is 0 or of length delta, so a short step is 0 and that try never runs.
    return True


def _evaluate(x: np.ndarray):
    """The value at ``x`` clipped to finite coordinates, moderated."""
    f = float((yield x.clip(-REALMAX, REALMAX)))
    return FUNCMAX if math.isnan(f) else min(max(f, -REALMAX), FUNCMAX)


def _value_at(x, dirs, pole, fval, distsq, tiny):
    """``(value, 1)`` after evaluating x, or ``(fval[j], 0)`` when x lies
    within sqrt(tiny) of vertex j; ``distsq`` takes the squared distances."""
    n = x.size
    step = x - pole
    distsq[n] = (step * step).sum()
    step = x[:, None] - (pole[:, None] + dirs)
    distsq[:n] = (step * step).sum(axis=0)
    j = distsq.argmin()
    if distsq[j] <= tiny:
        return fval[j], 0
    return (yield from _evaluate(x)), 1


def _settle(simi, dirs, eye):
    """PRIMA's inverse check: ``np.linalg.inv`` replaces ``simi`` if that is
    closer when ``simi @ dirs`` is off by more than 0.1; False past 1.  An
    exactly singular ``dirs`` has no inverse, so ``simi`` and its error stay."""
    erri = abs(simi @ dirs - eye).max()
    if erri > 0.1 or math.isnan(erri):
        try:
            test = np.linalg.inv(dirs)
        except np.linalg.LinAlgError:
            return simi, erri <= 1
        erri_test = abs(test @ dirs - eye).max()
        if erri_test < erri or (math.isnan(erri) and not math.isnan(erri_test)):
            simi, erri = test, erri_test
    return simi, erri <= 1


def _updatepole(fval, dirs, pole, simi, eye):
    """Make the vertex of least value (the first, if tied) the pole, unless
    the pole ties it, and check the inverse if the pole moved.  The caller
    has checked it for the simplex as it stands."""
    n = len(simi)
    jopt = fval.argmin()
    if not fval[jopt] < fval[n]:
        return simi, True
    pole += dirs[:, jopt]
    sim_jopt = dirs[:, jopt].copy()
    dirs[:, jopt] = 0
    dirs -= sim_jopt[:, None]
    simi[jopt, :] = -simi.sum(axis=0)
    simi, ok = _settle(simi, dirs, eye)
    if ok:
        fval[jopt], fval[n] = fval[n], fval[jopt]
    return simi, ok


def _updatexfc(jdrop, d, f, fval, dirs, pole, simi, eye):
    """Replace vertex ``jdrop`` (None: none) by pole + ``d`` of value ``f``."""
    n = len(simi)
    if jdrop is None:
        return simi, True
    if jdrop < n:
        dirs[:, jdrop] = d
        simi_jdrop = simi[jdrop, :] / np.dot(simi[jdrop, :], d)
        simi -= (simi @ d)[:, None] * simi_jdrop  # np.outer's products
        simi[jdrop, :] = simi_jdrop
    else:
        pole += d
        dirs -= d[:, None]
        simid = simi @ d
        simi += simid[:, None] * (simi.sum(axis=0) / (1 - sum(simid)))
    simi, ok = _settle(simi, dirs, eye)
    if ok:
        fval[jdrop] = f
    return _updatepole(fval, dirs, pole, simi, eye) if ok else (simi, False)


def _setdrop_tr(ximproved, d, delta, rho, dirs, simi):
    """The vertex that the trust-region point replaces, or None."""
    n = len(d)
    distsq, simid = np.zeros(n + 1), np.empty(n + 1)
    step = dirs - d[:, None] if ximproved else dirs
    distsq[:n] = (step * step).sum(axis=0)
    if ximproved:
        distsq[n] = (d * d).sum()
    scale = max(rho, delta / 10)
    simid[:n] = simi @ d
    simid[n] = 1 - simid[:n].sum()
    score = np.maximum(1, distsq / (scale * scale)) * abs(simid)
    if not ximproved:
        score[n] = -1
    score[np.isnan(score)] = -1
    if (score > 0).any():
        return score.argmax()
    return distsq.argmax() if ximproved else None


def _isminor(x: float, ref: float) -> bool:
    """True if ``x`` is rounding noise next to ``ref`` (Powell's test)."""
    refa, refb = abs(ref) + 0.1 * abs(x), abs(ref) + 2 * 0.1 * abs(x)
    return abs(ref) >= refa or refa >= refb


def _trstlp(g: np.ndarray, delta: float, eye: np.ndarray) -> np.ndarray:
    """PRIMA's trust-region step with no constraints: length ``delta``
    along -g, or 0 when g is 0 or rounding noise.

    PRIMA scales g to unit max-norm past 1e12, rotates it bottom-up onto
    the first axis of an identity Q, and steps along -Q[:, 0] / R[0, 0].
    Each entry of that column is one rounded product of a cosine and
    sines, as PRIMA's 2 x 2 products give it, so Python floats build it.
    """
    n = g.size
    maxval = max(abs(g).tolist())  # Python's max: a NaN counts only first
    if maxval > 1e12:
        g = g * max(2 * REALMIN, 1 / maxval)
    cq, cqa = (g @ eye).tolist(), (abs(g) @ eye).tolist()
    cq = [0.0 if _isminor(x, ref) else x for x, ref in zip(cq, cqa)]
    q0, x1 = [0.0] * (n - 1) + [1.0], cq[n - 1]
    for k in range(n - 2, -1, -1):
        x0 = cq[k]
        if abs(x1) > 0:
            c, s = _planerot(x0, x1)
            for i in range(k + 1, n):
                q0[i] *= s
            q0[k] = c
            x1 = float(np.hypot(x0, x1))
        else:
            q0[k:] = [1.0] + [0.0] * (n - 1 - k)
            x1 = x0
    if not (abs(x1) > EPS**2 and not _isminor(x1, cqa[0])):
        return np.zeros(n)
    sdirn = -1 / x1 * np.array(q0)
    ss = np.dot(sdirn, sdirn)
    if ss <= EPS * delta * delta:
        return np.zeros(n)
    step = math.sqrt(ss * (delta * delta)) / ss
    return 0.0 + step * sdirn if 0 < step < math.inf else np.zeros(n)


def _planerot(x0: float, x1: float) -> tuple:
    """(c, s) of the Givens rotation taking x = (x0, x1), finite with
    x1 != 0, to (|x|, 0), rounded as PRIMA's ``planerot`` rounds them."""
    a0, a1 = abs(x0), abs(x1)
    if a1 <= EPS * a0:
        return math.copysign(1.0, x0), 0.0
    if a0 <= EPS * a1:
        return 0.0, math.copysign(1.0, x1)
    if UNSCALED[0] < a0 < UNSCALED[1] and UNSCALED[0] < a1 < UNSCALED[1]:
        x = np.array((x0, x1))
        r = math.sqrt(x.dot(x))  # np.linalg.norm(x)
        return x0 / r, x1 / r
    t = x1 / x0 if a0 > a1 else x0 / x1
    u = max(1, abs(t), math.sqrt(1 + t * t))
    if a0 > a1:
        u = math.copysign(u, x0)
        return 1 / u, t / u
    u = math.copysign(u, x1)
    return t / u, 1 / u
