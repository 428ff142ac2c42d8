"""The full two-level pipeline on a synthetic road grid.

Generates a network and random-walk trajectories, builds the index with
the compact temporal backend, runs spatio-temporal queries and prints
the per-level space split.
"""

from trajindex import (
    Rect,
    ScaleConfig,
    TrajIndex,
    TrajIndexConfig,
    gen_grid_network,
    gen_trajectories,
)

net = gen_grid_network(20, 20)
records = gen_trajectories(net, n_objects=100, duration=100.0, seed=7)
print(f"network: {len(net.nodes)} nodes, {len(net.edges)} segments")
print(f"trajectories: {len(records)} traversal records from 100 objects")

cfg = TrajIndexConfig(temporal_backend="iis", scale=ScaleConfig(6))
index = TrajIndex.build(net, records, cfg)

stats = index.stats()
print(f"\nspace: spatial {stats.spatial_bytes} B, temporal {stats.temporal_bytes} B, "
      f"record data {stats.data_bytes} B")
busiest = max(stats.per_segment_records.items(), key=lambda kv: kv[1])
print(f"busiest segment: id {busiest[0]} with {busiest[1]} records")

window = Rect(5.0, 5.0, 9.0, 9.0)
print(f"\nwho crossed {window} during [20, 30]?")
result = index.range_query(window, 20.0, 30.0)
print(f"  {len(result.object_ids)} objects: {result.object_ids.array[:12].tolist()} ...")  # ascending

print(f"who was there at exactly t = 50?")
result = index.time_slice_query(window, 50.0)
print(f"  {len(result.object_ids)} objects")

print(f"who ever passed through? (whole time horizon)")
result = index.range_query(window, 0.0, 100.0)
print(f"  {len(result.object_ids)} objects")

result = index.range_query(window, 20.0, 21.0, verbose=True)
print(f"\nverbose mode returns matched traversals; first three of {len(result.matches)}:")
for obj, seg, interval in result.matches[:3]:
    print(f"  object {obj} on segment {seg} during [{interval.start:.3f}, {interval.end:.3f}]")
