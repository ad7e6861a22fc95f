"""Shared fixtures for rule-pack tests: tiny sources that trip (or must
not trip) the use-after-free and resource-leak detectors."""

from __future__ import annotations

from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.store.fingerprint import project_sources

#: Authorship off: tiny sources without a repository still produce
#: reported findings (semantic packs blame evidence lines either way).
CONFIG = ValueCheckConfig(use_authorship=False)

#: One use-after-free: `p` freed, then dereferenced on the fallthrough.
UAF_SRC = """void free(int *p);

int use_after(int mode) {
    int slot = mode + 1;
    int *p = &slot;
    free(p);
    return *p;
}
"""

#: The benign twin: the pointer is re-pointed before the dereference.
UAF_BENIGN_SRC = """void free(int *p);

int repointed(int mode) {
    int slot = mode + 1;
    int spare = mode + 2;
    int *p = &slot;
    free(p);
    p = &spare;
    return *p;
}
"""

#: A free inside a loop: the next iteration reads and frees `p` again.
UAF_LOOP_SRC = """void free(int *p);

int loop_free(int n) {
    int slot = n;
    int *p = &slot;
    int total = 0;
    while (n > 0) {
        total += *p;
        free(p);
        n--;
    }
    return total;
}
"""

#: One resource leak: the early return skips the fclose.
LEAK_SRC = """struct file *fopen(int mode);
void fclose(struct file *h);

int partial_release(int mode) {
    struct file *h = fopen(mode);
    if (mode < 0) {
        return -1;
    }
    fclose(h);
    return 0;
}
"""

#: The benign twin: released on every path.
LEAK_BENIGN_SRC = """struct file *fopen(int mode);
void fclose(struct file *h);

int released_everywhere(int mode) {
    struct file *h = fopen(mode);
    if (mode < 0) {
        fclose(h);
        return -1;
    }
    fclose(h);
    return 0;
}
"""

#: A classic unused definition (ignored return) for mixed-rule reports.
CLASSIC_SRC = """int helper(int x) {
    int unused = x + 1;
    return x;
}

int main() {
    int r = helper(2);
    helper(3);
    return 0;
}
"""


def analyze(sources, config: ValueCheckConfig | None = None):
    """(project, report) for a plain sources dict."""
    project = Project.from_sources(dict(sources), name="rules-test")
    report = ValueCheck(config or CONFIG).analyze(project)
    return project, report


def reported(report):
    return [finding for finding in report.findings if finding.is_reported]


def reported_kinds(report):
    return sorted(f.candidate.kind.value for f in reported(report))


def sources_of(project):
    return project_sources(project)
