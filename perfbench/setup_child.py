"""One fresh-process set-up: import poissat, then parse each scene of a
workload and build its bivector (Jacobi certification) and chart.

Usage: python3 perfbench/setup_child.py <workload> <seed>
"""

import sys

import env


def main(workload, seed):
    env.prepare()
    from poissat import cli
    from workloads import WORKLOADS, scene_text

    for fixture in dict.fromkeys(job.fixture for job in WORKLOADS[workload]):
        scene = cli.parse_scene(scene_text(fixture, seed))
        if scene.has("poisson"):
            bv = cli.build_bivector(scene)
            cli.build_chart(scene, bv.dim)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
