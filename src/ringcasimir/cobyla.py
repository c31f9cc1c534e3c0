"""Powell's COBYLA without constraints, with PRIMA's rules.

A numpy-only port of the unconstrained path of scipy 1.17.1's
``scipy/_lib/pyprima/cobyla`` (Zhang, doi:10.5281/zenodo.8052654; Powell
1994) at the settings of ``scipy.optimize.minimize(method="COBYLA")``.
Every rounding that a step depends on is pyprima's, mostly by the same
numpy calls on arrays of the same layout, so the same points are
evaluated, bit for bit, and the run stops for the same reason.  Without
constraints the penalty stays at its floor EPS and every constraint term
is 0, so PRIMA's penalty update and filter drop out.
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
    sim = np.eye(n, n + 1)  # columns: vertices minus the pole, then the pole (best vertex)
    sim[:, n] = x0
    fval = np.zeros(n + 1) + REALMAX
    fval[n] = yield from _evaluate(x0)
    for j in range(n):
        x = sim[:, n].copy()
        x[j] += 1.0
        fval[j] = yield from _evaluate(x)
        if fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            sim[:, n] = x
            sim[j, :j + 1] = -1.0
    simi, nf, rho, delta, distsq = np.linalg.inv(sim[:, :n]), n + 1, 1.0, 1.0, np.zeros(n + 1)
    for _ in range(10 * maxfun):
        sim, simi, ok = _updatepole(fval, sim, simi)
        if not ok:  # damaging rounding
            return False
        adequate_geo = ((sim[:, :n] * sim[:, :n]).sum(axis=0) <= 4 * (delta * delta)).all()
        g = (fval[:n] - fval[n]) @ simi
        d = _trstlp(g, delta)
        dnorm = min(delta, np.linalg.norm(d))
        prerem = -np.dot(d, g)
        shortd, trfail = dnorm <= 0.1 * rho, not (prerem > 1.0e-6 * EPS * rho)
        if shortd or trfail:
            delta *= 0.1
            if delta <= GAMMA3 * rho:
                delta = rho
        else:
            x = sim[:, n] + d
            f, evaluated = yield from _value_at(x, sim, fval, distsq, tiny)
            nf += evaluated
            actrem = fval[n] - f
            ratio = actrem / prerem
            if ratio <= ETA1:
                delta = GAMMA1 * dnorm
            else:
                delta = max(GAMMA1 * delta, dnorm if ratio <= ETA2 else GAMMA2 * dnorm)
            if delta <= GAMMA3 * rho:
                delta = rho
            jdrop_tr = _setdrop_tr(actrem > 0, d, delta, rho, sim, simi)
            sim, simi, ok = _updatexfc(jdrop_tr, d, f, fval, sim, simi)
            if not ok or nf >= maxfun or not np.isfinite(x).all():
                return False
        # ratio and jdrop_tr are read only after a tried step has set them
        bad_trstep = shortd or trfail or ratio <= 0 or jdrop_tr is None
        if bad_trstep and not adequate_geo and \
                not ((sim[:, :n] * sim[:, :n]).sum(axis=0) <= 4 * (delta * delta)).all():
            jdrop_geo = np.argmax((sim[:, :n] * sim[:, :n]).sum(axis=0), axis=0)
            d = simi[jdrop_geo, :]
            d = (delta / 2) * (d / np.linalg.norm(d))
            if np.dot(d, (fval[:n] - fval[n]) @ simi) > 0:  # PRIMA's -d.g < d.g
                d *= -1
            x = sim[:, n] + d
            f, evaluated = yield from _value_at(x, sim, fval, distsq, tiny)
            nf += evaluated
            sim, simi, ok = _updatexfc(jdrop_geo, d, f, fval, sim, simi)
            if not ok or nf >= maxfun or not np.isfinite(x).all():
                return False
        if bad_trstep and adequate_geo and max(delta, dnorm) <= rho:
            if rho <= rhoend:
                break
            rho_ratio = rho / rhoend
            reduced = (0.1 * rho if rho_ratio > 250 else rhoend if rho_ratio <= 16
                       else np.sqrt(rho_ratio) * rhoend)
            delta, rho = max(0.5 * rho, reduced), reduced
            sim, simi, ok = _updatepole(fval, sim, simi)
            if not ok:
                return False
    else:
        return False  # 10 maxfun trust-region iterations
    # The last trust-region step was short, and so not tried: try it now.
    x = sim[:, n] + d
    if shortd and np.linalg.norm(x - sim[:, n]) > 1.0e-3 * rhoend and nf < maxfun:
        yield from _evaluate(x)
    return True


def _evaluate(x: np.ndarray):
    """The value at ``x`` clipped to finite coordinates, moderated."""
    f = float((yield np.clip(x, -REALMAX, REALMAX)))
    return FUNCMAX if math.isnan(f) else min(max(f, -REALMAX), FUNCMAX)


def _value_at(x, sim, fval, distsq, tiny):
    """``(value, 1)`` after evaluating x, or ``(fval[j], 0)`` when x lies
    within sqrt(tiny) of vertex j; ``distsq`` takes the squared distances."""
    n = x.size
    step = x - sim[:, n]
    distsq[n] = (step * step).sum()
    step = x.reshape(n, 1) - (sim[:, n].reshape(n, 1) + sim[:, :n])
    distsq[:n] = (step * step).sum(axis=0)
    j = np.argmin(distsq)
    if distsq[j] <= tiny:
        return fval[j], 0
    return (yield from _evaluate(x)), 1


def _settle(simi, sim):
    """PRIMA's inverse check: ``np.linalg.inv`` replaces ``simi`` if that is
    closer when ``simi @ sim`` is off by more than 0.1; False past 1."""
    n = len(simi)
    erri = abs(simi @ sim[:, :n] - np.eye(n)).max()
    if erri > 0.1 or np.isnan(erri):
        test = np.linalg.inv(sim[:, :n])
        erri_test = abs(test @ sim[:, :n] - np.eye(n)).max()
        if erri_test < erri or (np.isnan(erri) and not np.isnan(erri_test)):
            simi, erri = test, erri_test
    return simi, erri <= 1


def _updatepole(fval, sim, simi):
    """Make the vertex of least value (the first, if tied) the pole, unless
    the pole ties it."""
    n = len(simi)
    jopt = int(np.argmin(fval))
    if jopt < n and fval[jopt] < fval[n]:
        sim[:, n] += sim[:, jopt]
        sim_jopt = sim[:, jopt].copy()
        sim[:, jopt] = 0
        sim[:, :n] -= sim_jopt[:, None]
        simi[jopt, :] = -simi.sum(axis=0)
    else:
        jopt = n
    simi, ok = _settle(simi, sim)
    if ok and jopt < n:
        fval[[jopt, n]] = fval[[n, jopt]]
    return sim, simi, ok


def _updatexfc(jdrop, d, f, fval, sim, simi):
    """Replace vertex ``jdrop`` (None: none) by pole + ``d`` of value ``f``."""
    n = len(simi)
    if jdrop is None:
        return sim, simi, True
    if jdrop < n:
        sim[:, jdrop] = d
        simi_jdrop = simi[jdrop, :] / np.dot(simi[jdrop, :], d)
        simi -= np.outer(simi @ d, simi_jdrop)
        simi[jdrop, :] = simi_jdrop
    else:
        sim[:, n] += d
        sim[:, :n] -= d[:, None]
        simid = simi @ d
        simi += np.outer(simid, simi.sum(axis=0) / (1 - sum(simid)))
    simi, ok = _settle(simi, sim)
    if not ok:
        return sim, simi, False
    fval[jdrop] = f
    return _updatepole(fval, sim, simi)


def _setdrop_tr(ximproved, d, delta, rho, sim, simi):
    """The vertex that the trust-region point replaces, or None."""
    n = len(d)
    distsq = np.zeros(n + 1)
    step = sim[:, :n] - d[:, None] if ximproved else sim[:, :n]
    distsq[:n] = (step * step).sum(axis=0)
    if ximproved:
        distsq[n] = (d * d).sum()
    scale = np.maximum(rho, delta / 10)
    simid = simi @ d
    score = np.maximum(1, distsq / (scale * scale)) * abs(np.append(simid, 1 - simid.sum()))
    if not ximproved:
        score[n] = -1
    score[np.isnan(score)] = -1
    if (score > 0).any():
        return np.argmax(score)
    return np.argmax(distsq) if ximproved else None


def _isminor(x, ref):
    """True where ``x`` is rounding noise next to ``ref`` (Powell's test)."""
    refa, refb = abs(ref) + 0.1 * abs(x), abs(ref) + 2 * 0.1 * abs(x)
    return np.logical_or(abs(ref) >= refa, refa >= refb)


def _trstlp(g: np.ndarray, delta: float) -> np.ndarray:
    """PRIMA's trust-region step with no constraints: length ``delta``
    along -g, or 0 when g is 0 or rounding noise.

    PRIMA scales g to unit max-norm past 1e12, rotates it bottom-up onto
    the first axis of an identity Q, and steps along -Q[:, 0] / R[0, 0].
    Each entry of that column is one rounded product of a cosine and
    sines, as PRIMA's 2 x 2 matrix products give it, so the column is
    built from those products directly.
    """
    n = g.size
    maxval = max(abs(g))
    if maxval > 1e12:
        g = g * max(2 * REALMIN, 1 / maxval)
    cq, cqa = g @ np.eye(n), abs(g) @ np.eye(n)
    cq[_isminor(cq, cqa)] = 0
    q0 = np.zeros(n)
    q0[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        x0, x1 = float(cq[k]), float(cq[k + 1])
        if abs(x1) > 0:
            c, s = _planerot(x0, x1, cq[k:k + 2])
            q0 *= s
            q0[k] = c
            cq[k] = np.hypot(x0, x1)
        else:
            q0[:] = 0.0
            q0[k] = 1.0
    if not (abs(cq[0]) > EPS**2 and not _isminor(cq[0], cqa[0])):
        return np.zeros(n)
    sdirn = -1 / cq[0] * q0
    ss = np.dot(sdirn, sdirn)
    if ss <= EPS * delta * delta:
        return np.zeros(n)
    step = np.sqrt(ss * (delta * delta)) / ss
    return 0.0 + step * sdirn if 0 < step < math.inf else np.zeros(n)


def _planerot(x0: float, x1: float, x: np.ndarray) -> tuple:
    """(c, s) of the Givens rotation taking ``x`` = (x0, x1), finite with
    x1 != 0, to (|x|, 0), rounded as PRIMA's ``planerot`` rounds them."""
    a0, a1 = abs(x0), abs(x1)
    if a1 <= EPS * a0:
        return math.copysign(1.0, x0), 0.0
    if a0 <= EPS * a1:
        return 0.0, math.copysign(1.0, x1)
    if UNSCALED[0] < a0 < UNSCALED[1] and UNSCALED[0] < a1 < UNSCALED[1]:
        r = math.sqrt(x.dot(x))  # np.linalg.norm(x)
        return x0 / r, x1 / r
    t = x1 / x0 if a0 > a1 else x0 / x1
    u = max(1, abs(t), math.sqrt(1 + t * t))
    if a0 > a1:
        u = math.copysign(u, x0)
        return 1 / u, t / u
    u = math.copysign(u, x1)
    return t / u, 1 / u
