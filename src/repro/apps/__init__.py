"""Ready-made Pogo applications (the paper's example experiments)."""
