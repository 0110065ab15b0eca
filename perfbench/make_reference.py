"""Regenerate the stored reference reports at the default seed.

Usage: python3 perfbench/make_reference.py

Run only when a report change is intended, and state the change.
"""

import env


def main():
    env.prepare()
    import workloads

    for name, jobs in workloads.WORKLOADS.items():
        for job in jobs:
            out = workloads.run_job(job, workloads.DEFAULT_SEED)
            if out.exit_code != job.expect_exit:
                raise SystemExit(f"{job.name}: exit {out.exit_code}, expected {job.expect_exit}")
            workloads.write_reference(name, job, out)
            print(f"{name}/{job.name}: exit {out.exit_code} {out.statuses}")


if __name__ == "__main__":
    main()
