"""Synthetic world: geometry, places, propagation, mobility, disruptions."""
