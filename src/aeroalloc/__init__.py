"""Sensing-to-actuation pipeline for a fixed-wing vehicle in a wind tunnel.

Five-hole probe calibration, a control-affine wrench model with a soft
left/right mirror prior, convex control allocation, and a synthetic plant
that stands in for the physical rig. Each name is imported from its module,
for example `from aeroalloc.allocator import solve`.
"""
# Defined before the submodule imports, so that they can import it.
__version__ = "0.1.0"

from . import allocator, dynamics, harness, plant, probe
