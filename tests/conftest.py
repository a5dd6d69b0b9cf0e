import os

import pytest

from cubicsd import cli, dataset


def _worker_count():
    return min(8, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def full_verification():
    """Rebuild and check all 264 table codes once per test session.

    Returns the verify-tables report together with the code objects,
    each carrying its refinement data (registered once, in the pool
    worker that built it), keyed for reuse by the acceptance tests.
    Dedup tests do not depend on this fixture having run: they match
    survivors through the shipped digest index.
    """
    report, codes = cli.verify_tables(
        threads=_worker_count(), return_codes=True
    )
    return {
        "report": report,
        "codes": codes,
        "entries": dataset.table_entries(),
    }
