"""
The classical traversal oracle
==============================

The same lattice as a plain graph. One generic traversal routine
covers both breadth-first (FIFO frontier) and depth-first (LIFO
frontier) search; BFS parent chains are the shortest-path reference
the simulator is compared against.
"""
import math

from wavenav import FIFO, LIFO, build_manifold, build_graph
from wavenav import geometric_length, shortest_path, traverse

m = build_manifold(41, 41, obstacles=[(0, 13, 30, 14), (10, 26, 40, 27)])
g4 = build_graph(m, radius=1.0)            # 4-connectivity
g8 = build_graph(m, radius=math.sqrt(2))   # 8-connectivity, diagonals sqrt(2)

s, t = m.index(4, 4), m.index(36, 36)
p4 = shortest_path(g4, s, t)
p8 = shortest_path(g8, s, t)
print("S maze, (4,4) to (36,36)")
print(f"  4-connected: {len(p4) - 1} hops,",
      f"length {geometric_length(p4, m):.2f}")
print(f"  8-connected: {len(p8) - 1} hops,",
      f"length {geometric_length(p8, m):.2f}")

# the same routine with a LIFO frontier is depth-first search: it
# still spans the component, but its parent chains are far from short
dfs = traverse(g8, s, LIFO)
chain = 0
node = t
while node != s:
    node = dfs[node]
    chain += 1
print(f"  DFS parent chain to the target: {chain} hops")

bfs = traverse(g8, s, FIFO)
print(f"  both traversals visit {len(bfs)} == {len(dfs)} reachable nodes")
