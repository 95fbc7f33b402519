"""Analysis: savings grids (Fig. 5 / Table VI), figures, fleet and QoS reports."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".savings": (
            "SavingsCell",
            "SavingsGrid",
            "compute_savings_grid",
            "table_vi",
            "average_savings",
        ),
        ".figures": (
            "render_fig4",
            "render_fig5",
            "render_fig6",
            "fig6_series",
            "sparkline",
        ),
        ".fleet": ("fleet_table", "render_fleet"),
        ".qos": ("qos_strips", "qos_table", "render_qos"),
        ".reporting": ("TextTable",),
        ".sweeps": ("render_store", "stored_results"),
    },
)
