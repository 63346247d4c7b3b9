"""Layered end-to-end benchmark of the production join path (see README.md)."""
