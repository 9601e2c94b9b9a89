"""Every row of `cli_cases.CASES`, run in process through `cli.main`; CI runs them through the console script."""

import pytest

from cli_cases import CASES, in_process, run_case


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(case, tmp_path):
    run_case(case, tmp_path, in_process)
