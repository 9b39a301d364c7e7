"""Pogo middleware core: pub/sub, scripting, scheduling, nodes, tail sync."""
