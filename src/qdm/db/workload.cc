#include "qdm/db/workload.h"

#include <cmath>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace db {

GeneratedWorkload GenerateJoinWorkload(QueryShape shape, int n,
                                       const WorkloadOptions& options,
                                       Rng* rng) {
  QDM_CHECK_GE(n, 2);
  // Start from the logical topology to learn the edge structure, then
  // rebuild it with physically-derived cardinalities and selectivities.
  JoinGraph topology = MakeRandomQuery(shape, n, rng);

  // Row counts, log-uniform.
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) {
    const double lo = std::log(static_cast<double>(options.min_rows));
    const double hi = std::log(static_cast<double>(options.max_rows));
    rows[i] = static_cast<int>(std::exp(rng->Uniform(lo, hi)));
  }

  // Column layout: every table gets an "id" column plus one join column per
  // incident edge.
  std::vector<std::vector<Column>> columns(n);
  for (int i = 0; i < n; ++i) {
    columns[i].push_back(Column{"id", ValueType::kInt64});
  }
  struct PhysicalEdge {
    int a, b;
    std::string col_a, col_b;
    int domain;
  };
  std::vector<PhysicalEdge> physical_edges;
  for (const JoinEdge& e : topology.edges()) {
    const int smaller = std::min(rows[e.a], rows[e.b]);
    const double fraction = rng->Uniform(options.min_domain_fraction,
                                         options.max_domain_fraction);
    const int domain = std::max(2, static_cast<int>(smaller * fraction));
    const std::string col_a = StrFormat("j%d_%d", e.a, e.b);
    const std::string col_b = StrFormat("j%d_%d", e.a, e.b);
    columns[e.a].push_back(Column{col_a, ValueType::kInt64});
    columns[e.b].push_back(Column{col_b, ValueType::kInt64});
    physical_edges.push_back(PhysicalEdge{e.a, e.b, col_a, col_b, domain});
  }

  GeneratedWorkload workload;
  for (int i = 0; i < n; ++i) {
    Table table(StrFormat("R%d", i), Schema(columns[i]));
    for (int r = 0; r < rows[i]; ++r) {
      Row row;
      row.emplace_back(static_cast<int64_t>(r));
      for (size_t c = 1; c < columns[i].size(); ++c) {
        // Find this column's domain.
        int domain = 2;
        for (const PhysicalEdge& pe : physical_edges) {
          if ((pe.a == i && pe.col_a == columns[i][c].name) ||
              (pe.b == i && pe.col_b == columns[i][c].name)) {
            domain = pe.domain;
            break;
          }
        }
        row.emplace_back(rng->UniformInt(0, domain - 1));
      }
      table.AppendUnchecked(std::move(row));
    }
    QDM_CHECK(workload.catalog.AddTable(std::move(table)).ok());
  }

  // Rebuild the join graph with physical cardinalities and estimator
  // selectivities (uniform-independence: sel = 1/domain).
  for (int i = 0; i < n; ++i) {
    workload.graph.AddRelation(StrFormat("R%d", i), rows[i]);
  }
  for (const PhysicalEdge& pe : physical_edges) {
    workload.graph.AddEdge(pe.a, pe.b, 1.0 / pe.domain, pe.col_a, pe.col_b);
  }
  return workload;
}

}  // namespace db
}  // namespace qdm
