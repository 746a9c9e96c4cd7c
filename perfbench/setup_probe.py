"""Set-up time of one fresh process: import bogodamp, build the model and
params of a workload, and build its first branch table.

    python3 perfbench/setup_probe.py WORKLOAD PROFILE_PATH

with the repository's src directory on PYTHONPATH.  Prints the CPU
seconds the process spent on it: the host's steal time, which moves wall
time by tens of percent from minute to minute, stays out of it.
"""
import sys
import time


def main():
    t0 = time.process_time()
    import workloads
    workloads.setup(sys.argv[1], sys.argv[2])
    print(repr(time.process_time() - t0))


if __name__ == "__main__":
    main()
