"""Artifact format names, kept apart from the writers so the CLI lists them without numpy."""

FORMATS_2D = ("pbm_ascii", "pbm_binary", "svg", "csv")
FORMATS_3D = ("xyz_text", "obj_mesh")
