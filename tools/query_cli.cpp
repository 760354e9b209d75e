#include "query_cli.h"

#include <cstdio>
#include <exception>
#include <fstream>

#include "analysis/csv_io.h"
#include "query/engine.h"
#include "query/export.h"
#include "query/presets.h"
#include "query/spec.h"

namespace cellrel {

void register_query_options(cli::Parser& parser, QueryToolOptions* opts) {
  parser.add_option("--preset", "NAME", "run a named figure/table preset",
                    cli::string_value(&opts->preset));
  parser.add_option("--spec", "SPEC", "run a custom query spec (e.g. \"agg=pf group=model\")",
                    cli::string_value(&opts->spec_text));
  parser.add_flag("--list-presets", "list the named presets and their specs",
                  [opts] { opts->list_presets = true; });
  parser.add_option("--format", "text|json|csv", "output format (default text)",
                    cli::string_value(&opts->format));
  parser.add_option("--out", "FILE", "write the result to FILE instead of stdout",
                    cli::string_value(&opts->out));
  parser.add_option("--spill-dir", "DIR",
                    "execute over spill shards in DIR (sidecars from DATASET_DIR)",
                    cli::string_value(&opts->spill_dir));
}

int run_query_tool(const QueryToolOptions& opts, const std::vector<std::string>& positionals) {
  if (opts.list_presets) {
    std::fputs(query::render_preset_list().c_str(), stdout);
    return 0;
  }
  if (opts.preset.empty() == opts.spec_text.empty()) {
    std::fprintf(stderr, "error: exactly one of --preset or --spec is required\n");
    return 2;
  }
  if (positionals.size() != 1) {
    std::fprintf(stderr, "error: expected exactly one DATASET_DIR argument\n");
    return 2;
  }
  if (opts.format != "text" && opts.format != "json" && opts.format != "csv") {
    std::fprintf(stderr, "error: unknown --format %s (text|json|csv)\n", opts.format.c_str());
    return 2;
  }

  query::QuerySpec spec;
  if (!opts.preset.empty()) {
    const auto preset = query::find_preset(opts.preset);
    if (!preset) {
      std::fprintf(stderr, "error: unknown preset %s (try --list-presets)\n",
                   opts.preset.c_str());
      return 2;
    }
    spec = *preset;
  } else {
    std::string error;
    const auto parsed = query::parse_query_spec(opts.spec_text, &error);
    if (!parsed) {
      std::fprintf(stderr, "error: bad --spec: %s\n", error.c_str());
      return 2;
    }
    spec = *parsed;
  }

  query::QueryResult result;
  try {
    // Spill shards carry only the record stream; fleet/BS/transition
    // sidecars come from the dataset directory.
    const bool spill = !opts.spill_dir.empty();
    const TraceDataset dataset = spill ? read_dataset_sidecars_csv(positionals[0])
                                       : read_dataset_csv(positionals[0]);
    if (spec.agg == query::AggKind::kTransition) {
      require_transition_samples(dataset, positionals[0]);
    }
    result = spill ? query::execute_over_spill(opts.spill_dir, dataset, spec)
                   : query::execute_over_dataset(dataset, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::string rendered;
  if (opts.format == "json") {
    rendered = query::query_result_to_json(result);
  } else if (opts.format == "csv") {
    rendered = query::query_result_to_csv(result);
  } else {
    rendered = query::query_result_to_text(result);
  }

  if (opts.out.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }
  std::ofstream out(opts.out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", opts.out.c_str());
    return 1;
  }
  out << rendered;
  return 0;
}

}  // namespace cellrel
