// Reproduces Table 1 (sample tuples), Table 3 (dataset statistics:
// tuples, attributes, max values per attribute, #grouping patterns), and
// Fig. 3 (the SO causal DAG, as DOT).

#include <algorithm>

#include "bench/harness.h"
#include "dataset/fd.h"
#include "mining/grouping_miner.h"

namespace causumx::bench {

void Datasets(Section& s) {
  s.Banner("Table 1", "sample tuples of the SO replica");
  {
    const GeneratedDataset ds = MakeDatasetByName("SO", 0.01);
    const char* cols[] = {"Country", "Continent", "Gender",   "Age",
                          "Role",    "Education", "Major",    "Salary"};
    std::vector<Col> header;
    for (const char* c : cols) header.push_back({c, -17});
    s.Table("Table 1", header);
    for (size_t r = 0; r < 5; ++r) {
      std::vector<std::string> row;
      for (const char* c : cols) {
        row.push_back(
            Fmt("%.17s", ds.table.column(c).GetValue(r).ToString().c_str()));
      }
      s.Row(row);
    }
  }

  s.Banner("Table 3", "examined datasets (scaled replicas)");
  s.Table("Table 3",
          {{"dataset", -12}, {"tuples", 10}, {"atts", 6},
           {"max-values-per-att", 18}, {"grouping-patterns", 20}});
  for (const std::string& name : RegisteredDatasetNames()) {
    if (name == "Synthetic") continue;  // not part of Table 3
    const GeneratedDataset ds = MakeDatasetByName(name, s.scale());
    size_t max_values = 0;
    for (size_t c = 0; c < ds.table.NumColumns(); ++c) {
      max_values = std::max(max_values, ds.table.column(c).NumDistinct());
    }
    const AggregateView view =
        AggregateView::Evaluate(ds.table, ds.default_query);
    const AttributePartition part =
        PartitionAttributes(ds.table, ds.default_query.group_by,
                            ds.default_query.avg_attribute);
    GroupingMinerOptions opt;
    opt.apriori.min_support = 0.1;
    const auto patterns = MineGroupingPatterns(
        ds.table, view, part.grouping_attributes, opt);
    s.Row({name, Fmt("%zu", ds.table.NumRows()),
           Fmt("%zu", ds.table.NumColumns()), Fmt("%zu", max_values),
           Fmt("%zu", patterns.size())});
  }

  s.Banner("Fig. 3", "SO ground-truth causal DAG (core subgraph, DOT)");
  {
    const GeneratedDataset ds = MakeDatasetByName("SO", 0.01);
    CausalDag core;
    for (const char* n : {"Country", "Salary", "Gender", "Ethnicity",
                          "Major", "Education", "Role", "YearsCoding",
                          "Age"}) {
      core.AddNode(n);
    }
    for (const auto& from : core.nodes()) {
      for (const auto& to : ds.dag.Children(from)) {
        if (core.HasNode(to)) core.AddEdge(from, to);
      }
    }
    s.Text("Fig. 3", core.ToDot("SO"));
  }
}

}  // namespace causumx::bench
