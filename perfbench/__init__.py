"""perfbench: the end-to-end and per-layer benchmark of the HARP reproduction."""
