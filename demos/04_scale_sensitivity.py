"""Effect of the timestamp scale on the compact structure.

Fewer preserved digits shrink the tick universe, and with it the
Elias-Fano payload, at the cost of temporal resolution.  Results stay
exact with respect to the truncated ticks at every scale.
"""

from trajindex import ScaleConfig, WorkloadSpec, gen_interval_workload
from trajindex.temporal.iis import IISIndex

records = gen_interval_workload(
    WorkloadSpec(kind="trajectory", n=50_000, seed=3, horizon=1000.0, mean_length=10.0)
)

print(f"{'digits':>6} {'universe':>16} {'m':>5} {'payload KiB':>12} {'ids KiB':>9}")
for digits in (0, 2, 4, 6, 8):
    index = IISIndex.build(records, ScaleConfig(digits))
    report = index.space_report()
    print(f"{digits:>6} {index.u:>16} {index.m:>5} "
          f"{report['payload_bits'] / 8192:>12.1f} {report['id_bits'] / 8192:>9.1f}")

print("\nthe payload tracks n*log2(u/n): each two digits add about 6.6 bits per endpoint")
