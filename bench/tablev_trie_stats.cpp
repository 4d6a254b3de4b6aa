// Regenerates the Sec. V-E routing-table statistics: the synthetic edge
// table's prefix count, raw trie nodes and leaf-pushed trie nodes next to
// the values the paper reports for its largest bgp.potaroo.net table
// (3 725 prefixes -> 9 726 nodes -> 16 127 leaf-pushed), plus the
// per-level node distribution that feeds the per-stage memory model.
#include "bench_common.hpp"
#include "netbase/table_gen.hpp"
#include "trie/trie_stats.hpp"
#include "trie/unibit_trie.hpp"

int main(int argc, char** argv) {
  using namespace vr;
  bench::parse_flags(argc, argv);
  const core::FigureBuilder builder(fpga::DeviceSpec::xc6vlx760(),
                                    bench::paper_options());
  bench::emit(builder.table_trie_stats());

  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const net::RoutingTable table = gen.generate(1);
  const trie::UnibitTrie pushed = trie::UnibitTrie(table).leaf_pushed();
  const trie::TrieStats stats = trie::compute_stats(pushed);

  SeriesTable levels("Leaf-pushed trie: nodes per level (seed 1)", "level",
                     {"total", "internal", "leaves"});
  for (std::size_t l = 0; l < stats.nodes_per_level.size(); ++l) {
    levels.add_point(static_cast<double>(l),
                     {static_cast<double>(stats.nodes_per_level[l]),
                      static_cast<double>(stats.internal_per_level[l]),
                      static_cast<double>(stats.leaves_per_level[l])});
  }
  bench::emit(levels);
  return 0;
}
