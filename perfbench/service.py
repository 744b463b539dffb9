"""Set-up of the service under test: train, persist, load, boot.

The service is configured from the ``serve`` defaults of
:func:`repro.cli.build_parser`, so a change to a shipped default is
measured with it.  Only the listen address differs: the benchmark binds
an ephemeral port on the loopback interface.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path

from repro import config
from repro.cli import build_parser
from repro.data.forest import generate_forest
from repro.data.table import Table
from repro.estimators import LearnedEstimator
from repro.featurize import ConjunctiveEncoding, DisjunctionEncoding
from repro.models import GradientBoostingRegressor
from repro.persistence import load_estimator, save_estimator
from repro.serve import EstimationServer, EstimationService
from repro.workloads import (
    generate_conjunctive_workload,
    generate_mixed_workload,
)

__all__ = ["MODEL", "Deployment", "deploy", "make_table", "serve_defaults"]

#: The served model.  Fixed, not drawn from the workload seed: the
#: seed varies the inputs, never the system under test.
MODEL = {
    "table": "forest",
    "rows": 4_000,
    "train_queries": 400,
    "trees": 30,
    "partitions": config.DEFAULT_PARTITIONS,
    "seed": config.DEFAULT_SEED,
}


def serve_defaults() -> dict:
    """The ``repro serve`` defaults that configure an
    :class:`~repro.serve.server.EstimationService`."""
    args = build_parser().parse_args(["serve", "--artifact", "-"])
    accepted = inspect.signature(EstimationService).parameters
    return {key: value for key, value in sorted(vars(args).items())
            if key in accepted and key != "estimator"}


def make_table() -> Table:
    """The synthetic forest table every workload runs against."""
    return generate_forest(rows=MODEL["rows"], seed=MODEL["seed"])


@dataclass
class Deployment:
    """One trained, persisted, reloaded and served estimator."""

    artifact: Path
    service: EstimationService
    server: EstimationServer

    def stop(self) -> None:
        self.server.stop(drain=True)


def deploy(mixed: bool, artifact: Path) -> Deployment:
    """Table, training labels, fit, persist, load, service and server.

    ``mixed`` selects the complex QFT (Algorithm 2) trained on mixed
    queries; otherwise the conjunctive QFT (Algorithm 1) on
    conjunctive queries.  Both are gradient-boosted forests.
    """
    table = make_table()
    generate = (generate_mixed_workload if mixed
                else generate_conjunctive_workload)
    train = generate(table, MODEL["train_queries"], seed=MODEL["seed"] + 1)
    qft = DisjunctionEncoding if mixed else ConjunctiveEncoding
    estimator = LearnedEstimator(
        qft(table, max_partitions=MODEL["partitions"]),
        GradientBoostingRegressor(n_estimators=MODEL["trees"]),
    ).fit(train.queries, train.cardinalities)
    artifact.parent.mkdir(parents=True, exist_ok=True)
    save_estimator(estimator, artifact)
    service = EstimationService(load_estimator(artifact), **serve_defaults())
    server = EstimationServer(service, host="127.0.0.1", port=0)
    server.start()
    return Deployment(artifact, service, server)
