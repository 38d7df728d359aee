"""The paper's contribution: the multi-level evaluation methodology.

Every public name resolves on first use, so importing one module of the
package (``repro.core.spec``, say) loads that module alone and not the
simulator behind the rest.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Public name -> the module defining it.
_EXPORTS = {
    "CACHE_SCHEMA_VERSION": "repro.core.cache",
    "DiskBackend": "repro.core.cache",
    "ResultCache": "repro.core.cache",
    "ShardedBackend": "repro.core.cache",
    "job_key": "repro.core.cache",
    "ADL_CRITERIA": "repro.core.criteria",
    "Criterion": "repro.core.criteria",
    "NS": "repro.core.criteria",
    "PS": "repro.core.criteria",
    "Rating": "repro.core.criteria",
    "WS": "repro.core.criteria",
    "EvaluationReport": "repro.core.evaluation",
    "Evaluator": "repro.core.evaluation",
    "ToolEvaluation": "repro.core.evaluation",
    "evaluate_tools": "repro.core.evaluation",
    "MeasurementJob": "repro.core.jobs",
    "execute_job": "repro.core.jobs",
    "ADL": "repro.core.levels",
    "APL": "repro.core.levels",
    "EvaluationLevel": "repro.core.levels",
    "STANDARD_LEVELS": "repro.core.levels",
    "TPL": "repro.core.levels",
    "Measurement": "repro.core.metrics",
    "MeasurementSet": "repro.core.metrics",
    "aggregate_scores": "repro.core.metrics",
    "rank_by_value": "repro.core.metrics",
    "ratio_scores": "repro.core.metrics",
    "PRIMITIVE_CLASSES": "repro.core.ranking",
    "primitive_rankings": "repro.core.ranking",
    "summary_table": "repro.core.ranking",
    "ResultSet": "repro.core.results",
    "EXECUTOR_BACKENDS": "repro.core.executors",
    "Executor": "repro.core.executors",
    "JobOutcome": "repro.core.executors",
    "ProcessPoolExecutor": "repro.core.executors",
    "SerialExecutor": "repro.core.executors",
    "create_executor": "repro.core.executors",
    "resolve_workers": "repro.core.executors",
    "CacheHit": "repro.core.progress",
    "JobFinished": "repro.core.progress",
    "JobStarted": "repro.core.progress",
    "Progress": "repro.core.progress",
    "RunCompleted": "repro.core.progress",
    "RunEvent": "repro.core.progress",
    "JobTelemetry": "repro.core.scheduler",
    "RunHandle": "repro.core.scheduler",
    "Scheduler": "repro.core.scheduler",
    "DEFAULT_APP_PARAMS": "repro.core.spec",
    "DEFAULT_TPL_SIZES": "repro.core.spec",
    "EvaluationSpec": "repro.core.spec",
    "SampleStats": "repro.core.stats",
    "summarize": "repro.core.stats",
    "t_critical": "repro.core.stats",
    "USABILITY_MATRIX": "repro.core.usability",
    "adl_score": "repro.core.usability",
    "usability_ratings": "repro.core.usability",
    "APPLICATION_DEVELOPER": "repro.core.weights",
    "BALANCED": "repro.core.weights",
    "END_USER": "repro.core.weights",
    "PRESET_PROFILES": "repro.core.weights",
    "TOOL_DEVELOPER": "repro.core.weights",
    "WeightProfile": "repro.core.weights",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
