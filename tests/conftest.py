import functools

import numpy as np
import pytest

ACCEPTANCE_LINES = []
MAX_TEST_ID = 100  # characters; lists of tests that cut ids there cannot match a longer one
# the test functions whose ids were longer than MAX_TEST_ID before the limit
# was kept; no other test may pass it
LONG_ID_TESTS = frozenset({
    "tests/test_cli.py::test_help_and_errors_leave_the_shared_parser_as_a_fresh_process_has_it",
    "tests/test_cli.py::test_perturb_flag_errors_come_before_any_document",
    "tests/test_cli.py::test_perturb_reports_a_dependent_perturbation_of_an_independent_base",
    "tests/test_decoding.py::test_a_load_leaves_the_collector_as_the_caller_set_it",
    "tests/test_decoding.py::test_documents_orjson_refuses_read_as_the_standard_library_reads_them",
    "tests/test_numerics.py::test_containment_is_judged_against_the_operator_norm_at_every_scale",
    "tests/test_numerics.py::test_synthesis_accepts_the_analysis_of_a_frame_with_a_small_lower_bound",
    "tests/test_perturb.py::test_a_turned_tied_singular_basis_keeps_the_certified_witness",
    "tests/test_represent.py::test_a_sampled_defect_never_exceeds_the_exact_one_at_the_benchmark_sizes",
    "tests/test_represent.py::test_batched_hypotheses_match_the_per_element_loop",
    "tests/test_represent.py::test_kernel_check_agrees_with_exact_oracle_and_reference_sampler",
    "tests/test_represent.py::test_the_returned_kernel_samples_reproduce_the_check",
    "tests/test_serialize.py::test_bad_entry_in_a_later_element_is_named",
    "tests/test_serialize.py::test_unusable_entries_named_by_position",
})


def _fail_long_id(nodeid: str):
    pytest.fail(f"test id longer than {MAX_TEST_ID} characters: {nodeid}; shorten the name "
                "or the parameter ids", pytrace=False)


def pytest_collection_modifyitems(items):
    """Every test whose id is longer than MAX_TEST_ID characters fails,
    unless its function is one of LONG_ID_TESTS."""
    for item in items:
        if len(item.nodeid) > MAX_TEST_ID and item.nodeid.split("[")[0] not in LONG_ID_TESTS:
            item.runtest = functools.partial(_fail_long_id, item.nodeid)


def record_acceptance(name: str, ok: bool, detail: str = ""):
    ACCEPTANCE_LINES.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_LINES:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name}" + (f"  ({detail})" if detail else "")
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_matrix(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
