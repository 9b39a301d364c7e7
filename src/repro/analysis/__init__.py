"""Analysis: clustering, match scoring, SLOC counting, energy traces."""
