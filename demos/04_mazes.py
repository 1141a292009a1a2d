"""
Maze traversal against the classical oracle
===========================================

Three walled lattices. Waves flow around obstacles, so the bump path
follows the maze; a breadth-first search on the same lattice gives
the reference length. The shipped regimes stay within 1.6x of it.
"""
import os

from wavenav import load_config, verify_scenario
from wavenav.io import REPORT_HEADER, report_row

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir,
                         "src", "wavenav", "scenarios")

print(REPORT_HEADER)
for name in ("s_maze", "block", "complex"):
    cfg = load_config(os.path.join(SCENARIOS, name + ".cfg"))
    result, record = verify_scenario(
        cfg, out_dir=os.path.join("demo_out", "mazes", name))
    print(report_row(record))

# the block maze is perfectly symmetric: the two wave fronts rounding
# the block hit the bump together, and the planner aims at the nodes the
# first front reached earliest on the side that holds the lowest node
# index, so the bump passes the block on one side every run
