"""Voxel wind tunnel toolkit: heightmap voxelisation, particle-burst
aerodynamic metrics, and PPO-driven shape optimisation."""
