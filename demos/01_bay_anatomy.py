"""Tour of the bay model: cells, scan order, canonical fill, validation.

Run with: python3 demos/01_bay_anatomy.py
"""

import numpy as np

from baystow import (
    BayDims,
    Cell,
    GeneratorSpec,
    above_count,
    canonical_fill,
    cell_coords,
    fitness,
    generate_instance,
    rehandles,
    shuffle_ids,
    validate,
)

# A bay is a 3-D grid: n1 columns along the row, n2 positions deep, n3 tiers high.
dims = BayDims(3, 2, 2)
print(f"bay {dims}: floor capacity {dims.floor_capacity}, total capacity {dims.capacity}")

# Cells are visited tier by tier, then across, then into the depth.
print("\nscan order (x, y, z):")
for i, (x, y, z) in enumerate(zip(*cell_coords(dims, np.arange(dims.capacity)))):
    print(f"  slot {i:2d} -> ({x}, {y}, {z})")

# An instance adds containers with delivery dates in [1, 100);
# earlier dates mean higher priority 1/date.
inst = generate_instance(GeneratorSpec(dims, n_containers=9, seed=7, date_min=1.0, date_max=30.0))
print("\ncontainers (id, delivery date, priority):")
for cid, (date, priority) in enumerate(zip(inst.delivery_dates, inst.priority_vector()), 1):
    print(f"  {cid:2d}  {date:6.2f}  {priority:.4f}")

# The canonical fill drops ids 1..Nc into the first Nc scan slots.
arr = canonical_fill(inst)
print(f"\nstored scan vector, cut after the last occupied cell: {arr.scan.tolist()}")
grid = arr.grid  # the dense view, built on each access
print("canonical fill, floor by floor (0 = empty):")
for z in range(dims.n3):
    print(f"  z={z}:")
    for y in range(dims.n2):
        print("   ", " ".join(f"{grid[x, y, z]:2d}" for x in range(dims.n1)))

# Containers stacked above a cell are the ones that must move to reach it.
probe = Cell(0, 0, 0)
print(f"\ncontainers above {tuple(probe)}: {above_count(arr, probe)}")

# The objective weighs each container's rehandle count by its priority.
result = fitness(arr, inst)
print(f"\nrehandles by id: {rehandles(arr, inst)}")
print(f"fitness of canonical fill: {result.fitness:.4f}")

# Swapping ids preserves the occupancy pattern, so validity is kept by construction.
rng = np.random.default_rng(0)
mixed = shuffle_ids(arr, rng, swaps=9)
print(f"fitness after 9 random swaps: {fitness(mixed, inst).fitness:.4f}")
print(f"violations in shuffled arrangement: {validate(mixed, inst)}")
