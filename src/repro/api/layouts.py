"""The machine-to-cell layouts of the grid placement.

A dependency-free leaf, so both :class:`repro.core.mapping.GridPlacement`
and :class:`repro.api.config.RunConfig` validate against one authority
without an api ⇄ core import cycle.
"""

LAYOUTS = ("dyadic", "row_major")
