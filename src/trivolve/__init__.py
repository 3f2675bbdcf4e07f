"""Computational workbench for involutions and trivolutions on
finite-dimensional complex associative algebras."""
