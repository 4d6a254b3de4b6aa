// Ablation: leaf-pushing write amplification — the paper deploys
// leaf-pushed tries (Sec. V-D) but assumes a low update rate (Sec. V-B);
// its reference [6] works on incremental updates precisely because leaf
// pushing amplifies updates: a single announce can flip the inherited next
// hop of a whole subtree of pushed leaves. This bench replays BGP-like
// updates and compares the words written in the raw trie (incremental,
// O(prefix length)) against the words a leaf-pushed deployment must
// rewrite (structural diff).
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "netbase/update_gen.hpp"
#include "trie/trie_diff.hpp"
#include "trie/updatable_trie.hpp"

int main() {
  using namespace vr;
  net::TableProfile profile;
  profile.prefix_count = 1500;
  const net::SyntheticTableGenerator gen(profile);
  const net::RoutingTable base = gen.generate(1);

  net::UpdateStreamConfig stream_config;
  stream_config.update_count = 60;
  stream_config.profile = profile;
  const net::UpdateStreamGenerator stream_gen(stream_config);
  const auto stream = stream_gen.generate(base, 3);

  RunningStats raw_words;
  RunningStats pushed_words;
  RunningStats amplification;
  net::RoutingTable current = base;
  trie::UnibitTrie pushed_before = trie::UnibitTrie(current).leaf_pushed();
  trie::UpdatableTrie incremental(current);

  for (const net::RouteUpdate& update : stream) {
    const trie::UpdateCost cost = incremental.apply(0, update);
    if (update.kind == net::RouteUpdate::Kind::kAnnounce) {
      current.add(update.route);
    } else {
      current.remove(update.route.prefix);
    }
    const trie::UnibitTrie pushed_after =
        trie::UnibitTrie(current).leaf_pushed();
    const trie::TrieDiff diff = diff_tries(pushed_before, pushed_after);
    raw_words.add(static_cast<double>(cost.words_written));
    pushed_words.add(static_cast<double>(diff.words_written()));
    if (cost.words_written > 0) {
      amplification.add(static_cast<double>(diff.words_written()) /
                        static_cast<double>(cost.words_written));
    }
    pushed_before = pushed_after;
  }

  TextTable out(
      "Write amplification of leaf pushing (60 BGP-like updates, "
      "1500-prefix table)");
  out.set_header({"deployment", "mean words/update", "max words/update"});
  out.add_row({"raw trie (incremental)", TextTable::num(raw_words.mean(), 1),
               TextTable::num(raw_words.max(), 0)});
  out.add_row({"leaf-pushed trie (rewrite)",
               TextTable::num(pushed_words.mean(), 1),
               TextTable::num(pushed_words.max(), 0)});
  out.add_row({"amplification x", TextTable::num(amplification.mean(), 1),
               TextTable::num(amplification.max(), 0)});
  vr::bench::emit(out);
  std::cout << "Leaf pushing buys lookup-side simplicity (NHI only at\n"
               "leaves) at an update-side write amplification that is\n"
               "modest on average but explodes on short-prefix churn (a\n"
               "re-announced /16 rewrites every pushed leaf it covers) --\n"
               "the gap reference [6] (incremental updates for virtualized\n"
               "routers) targets.\n";
  return 0;
}
