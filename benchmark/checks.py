"""Output checks made apart from the program.

Nothing here imports wavenav. The reference optimum is rebuilt from the
config's grid and obstacle rectangles; traversal and wave checks read the
files the CLI wrote (trajectory.csv, report.csv, sweep.csv, PGM frames).
Each check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

# documented default of coupling.arrival_radius (README config grammar)
DEFAULT_ARRIVAL_RADIUS = 2.0
# report.csv prints floats with four decimals
REPORT_TOL = 0.5e-4
# a non-source neuron bursting within this many steps belongs to one burst
BURST_GAP = 5
# a periodically bursting source (README "How it works") bursts at least
# this often; today its cycles are 50 steps long
MAX_CYCLE = 100


def blocked_mask(nx: int, ny: int, obstacles) -> np.ndarray:
    """(ny, nx) mask of nodes covered by inclusive [x0, y0, x1, y1] rectangles."""
    mask = np.zeros((ny, nx), dtype=bool)
    for x0, y0, x1, y1 in obstacles:
        mask[max(y0, 0):y1 + 1, max(x0, 0):x1 + 1] = True
    return mask


def optimum_length(cfg: dict) -> float:
    """Shortest start-to-target length on the 8-connected free lattice.

    Axis edges weigh 1 and diagonal edges sqrt(2); a diagonal edge needs
    only its two endpoints free.
    """
    nx, ny = cfg["grid"]["nx"], cfg["grid"]["ny"]
    free = ~blocked_mask(nx, ny, cfg.get("obstacles", []))
    ids = np.arange(nx * ny).reshape(ny, nx)
    rows, cols, weights = [], [], []
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
        ys = slice(max(0, -dy), ny - max(0, dy))
        xs = slice(0, nx - dx)
        ys2 = slice(max(0, dy), ny - max(0, -dy))
        xs2 = slice(dx, nx)
        ok = free[ys, xs] & free[ys2, xs2]
        rows.append(ids[ys, xs][ok])
        cols.append(ids[ys2, xs2][ok])
        weights.append(np.full(int(ok.sum()), math.hypot(dx, dy)))
    n = nx * ny
    graph = coo_matrix((np.concatenate(weights),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n)).tocsr()
    sx, sy = cfg["start"]
    tx, ty = cfg["target"]
    dist = dijkstra(graph, directed=False, indices=sy * nx + sx)
    return float(dist[ty * nx + tx])


def parse_trajectory(text: str):
    """(rows as (t, x, y) ints, footer dict) of a planner trajectory.csv."""
    lines = text.splitlines()
    footer = {}
    if lines and lines[-1].startswith("#"):
        for item in lines[-1][1:].split():
            key, _, value = item.partition("=")
            footer[key] = value
        lines = lines[:-1]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append((int(cells[0]), int(cells[1]), int(cells[2])))
    return rows, footer


def rows_path_length(rows, origin=None) -> float:
    """Euclidean length over consecutive distinct bump positions.

    With `origin`, the route is taken to begin there, before the first row.
    """
    total = 0.0
    prev = origin
    for _, x, y in rows:
        if prev is not None and (x, y) != prev:
            total += math.hypot(x - prev[0], y - prev[1])
        prev = (x, y)
    return total


def check_traversal(cfg: dict, text: str, optimum: float, exit_code: int,
                    report: dict | None = None) -> list[str]:
    """Problems with one traversal's trajectory.csv (and report row, if any)."""
    problems = []
    rows, footer = parse_trajectory(text)
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if footer.get("outcome") != "reached":
        problems.append(f"outcome {footer.get('outcome')!r}")
    if not rows:
        return problems + ["no trajectory rows"]
    if int(footer.get("steps", -1)) != len(rows):
        problems.append(f"footer steps {footer.get('steps')} != {len(rows)} rows")
    nx, ny = cfg["grid"]["nx"], cfg["grid"]["ny"]
    blocked = blocked_mask(nx, ny, cfg.get("obstacles", []))
    for t, x, y in rows:
        if not (0 <= x < nx and 0 <= y < ny):
            problems.append(f"t={t}: bump ({x}, {y}) outside the grid")
            break
        if blocked[y, x]:
            problems.append(f"t={t}: bump ({x}, {y}) on a blocked node")
            break
    radius = cfg.get("coupling", {}).get("arrival_radius", DEFAULT_ARRIVAL_RADIUS)
    tx, ty = cfg["target"]
    _, fx, fy = rows[-1]
    if math.hypot(fx - tx, fy - ty) > radius + 1e-9:
        problems.append(f"final ({fx}, {fy}) not within {radius} of target")
    # the rows are the bump centres after each step; the footer's path may
    # or may not begin at the configured start, before the first row
    footer_length = float(footer.get("path_length", "nan"))
    lengths = (rows_path_length(rows), rows_path_length(rows, tuple(cfg["start"])))
    if not any(abs(n - footer_length) <= 1e-6 * max(1.0, n) for n in lengths):
        problems.append(f"rows give path length {lengths[0]:.7f} "
                        f"({lengths[1]:.7f} from the start), "
                        f"footer says {footer_length}")
    if report is not None:
        if report["outcome"] != "reached":
            problems.append(f"report outcome {report['outcome']!r}")
        if float(report["bfs_length"]) < optimum - REPORT_TOL:
            problems.append(f"report bfs_length {report['bfs_length']} below "
                            f"the optimum {optimum:.4f}")
    return problems


def straight_line_floor(cfg: dict) -> float:
    """Least length of any route from the config's start into the arrival disc.

    The bump hops between nodes by up to a few nodes at a time, cutting
    corners a lattice route cannot, so a lattice shortest path is no lower
    bound on its path length; the straight line to the target, less the
    arrival radius, is.
    """
    radius = cfg.get("coupling", {}).get("arrival_radius", DEFAULT_ARRIVAL_RADIUS)
    (sx, sy), (tx, ty) = cfg["start"], cfg["target"]
    return math.hypot(tx - sx, ty - sy) - radius


def read_pgm(path: str) -> np.ndarray:
    """(ny, nx) uint8 pixels of a binary P5 PGM with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, size, maxval, pixels = data.split(b"\n", 3)
    nx, ny = (int(v) for v in size.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != nx * ny:
        raise ValueError(f"{path}: not an {nx}x{ny} P5 frame")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(ny, nx)


def parse_wave_log(text: str) -> list[int]:
    """Excitatory spike count per step of a wave-only trajectory.csv."""
    return [int(line.split(",")[6]) for line in text.splitlines()[1:]
            if not line.startswith("#")]


def check_frame(frame: np.ndarray, blocked: np.ndarray, spike_count: int) -> list[str]:
    """Pixel coding of a wave-only frame: blocked 128, spiking 255, else 0.

    The log counts every excitatory spike, blocked nodes included, so a
    blocked node that spiked shows up as a count above the 255 pixels.
    """
    problems = []
    if (frame[blocked] != 128).any():
        problems.append("blocked node not rendered 128")
    free = frame[~blocked]
    if ((free != 0) & (free != 255)).any():
        problems.append("free node neither 0 nor 255")
    if int((free == 255).sum()) != spike_count:
        problems.append(f"{int((free == 255).sum())} spiking pixels, "
                        f"log counts {spike_count}")
    return problems


def is_square_symmetric(frame: np.ndarray, cx: int, cy: int) -> bool:
    """Invariance under the 8 symmetries of the square about (cx, cy)."""
    ny, nx = frame.shape
    r = min(cx, cy, nx - 1 - cx, ny - 1 - cy)
    w = frame[cy - r:cy + r + 1, cx - r:cx + r + 1]
    return (np.array_equal(w, w.T) and np.array_equal(w, w[::-1])
            and np.array_equal(w, w[:, ::-1]))


def is_mirror_symmetric(frame: np.ndarray, x1: int, x2: int) -> bool:
    """Invariance under x -> x1 + x2 - x, within the grid."""
    nx = frame.shape[1]
    c = x1 + x2
    lo, hi = max(0, c - (nx - 1)), min(nx - 1, c)
    w = frame[:, lo:hi + 1]
    return np.array_equal(w, w[:, ::-1])


def front_speed(masks: dict[int, np.ndarray], cx: int, cy: int,
                horizon: int = 40) -> float:
    """Slope of the outermost spike radius over steps t < horizon."""
    ts, radii = [], []
    for t, mask in sorted(masks.items()):
        if t >= horizon:
            break
        ys, xs = np.nonzero(mask)
        if len(xs):
            ts.append(t)
            radii.append(float(np.hypot(xs - cx, ys - cy).max()))
    if len(ts) < 2:
        return float("nan")
    return float(np.polyfit(ts, radii, 1)[0])


def emission_starts(source_spiking: list[bool]) -> list[int]:
    """First step of each source burst; bursts split at gaps > BURST_GAP."""
    starts = []
    last = None
    for t, spiking in enumerate(source_spiking):
        if not spiking:
            continue
        if last is None or t - last > BURST_GAP:
            starts.append(t)
        last = t
    return starts


def check_cycles(masks: list[np.ndarray], sources) -> tuple[list[str], int, int]:
    """(problems, complete emission cycles, cycles with a doubled spike).

    `masks` are the spike masks of consecutive steps from step 0. The
    sources must burst at least once every MAX_CYCLE steps, and each cycle
    must launch a front; a cycle in which a non-source node spikes twice
    is counted, not reported as a problem.
    """
    starts = emission_starts([any(m[y, x] for x, y in sources) for m in masks])
    problems = []
    silent = int(np.diff([0] + starts + [len(masks)]).max())
    if silent > MAX_CYCLE:
        problems.append(f"sources silent for {silent} steps")
    doubled = 0
    for lo, hi in zip(starts, starts[1:]):
        counts = np.sum(masks[lo:hi], axis=0, dtype=np.int64)
        for x, y in sources:
            counts[y, x] = 0
        if not counts.any():
            problems.append(f"cycle at t={lo} launched no front")
        elif (counts > 1).any():
            doubled += 1
    return problems, max(len(starts) - 1, 0), doubled
