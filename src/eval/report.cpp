#include "eval/report.hpp"

#include <cmath>
#include <ostream>

#include "obs/json_util.hpp"

namespace richnote::eval {

namespace {

using richnote::obs::json_number;
using richnote::obs::json_string;

std::string num(double v) {
    std::string s;
    json_number(s, v);
    return s;
}

std::string str(std::string_view v) {
    std::string s;
    json_string(s, v);
    return s;
}

/// CSV cell for a double: %.17g, empty for non-finite (no CSV convention
/// for infinities; an empty cell is unambiguous and diff-stable).
std::string csv_num(double v) {
    if (!std::isfinite(v)) return std::string();
    return num(v);
}

void write_metric_json(const running_stats& acc, const confidence_interval& ci,
                       std::ostream& out) {
    out << "{\"samples\":" << acc.count() << ",\"mean\":" << num(acc.mean())
        << ",\"stddev\":" << num(acc.sample_stddev());
    if (acc.count() >= 2) {
        out << ",\"ci_lo\":" << num(ci.lo) << ",\"ci_hi\":" << num(ci.hi);
    } else {
        out << ",\"ci_lo\":null,\"ci_hi\":null";
    }
    out << ",\"min\":" << num(acc.min()) << ",\"max\":" << num(acc.max()) << "}";
}

} // namespace

void write_eval_json(const eval_result& result, const report_options& opts,
                     std::ostream& out) {
    out << "{\n"
        << "  \"schema\": \"richnote-eval-v1\",\n"
        << "  \"scenario\": " << str(opts.scenario) << ",\n"
        << "  \"objective\": " << str(result.objective) << ",\n"
        << "  \"maximize\": " << (result.maximize ? "true" : "false") << ",\n"
        << "  \"alpha\": " << num(result.alpha) << ",\n"
        << "  \"seeds\": " << result.seeds << ",\n"
        << "  \"base_seed\": " << result.base_seed << ",\n"
        << "  \"min_samples\": " << result.min_samples << ",\n"
        << "  \"seed_set_hash\": " << str(hex64(result.seed_set_hash)) << ",\n"
        << "  \"replicas_executed\": " << result.replicas_executed << ",\n"
        << "  \"replicas_used\": " << result.replicas_used << ",\n"
        << "  \"leader\": " << str(result.arms[result.leader].name) << ",\n"
        << "  \"arms\": [\n";
    for (std::size_t k = 0; k < result.arms.size(); ++k) {
        const arm_result& arm = result.arms[k];
        out << "    {\"name\": " << str(arm.name)
            << ", \"retired\": " << (arm.retired ? "true" : "false")
            << ", \"retired_after\": " << arm.retired_after << ", \"retired_by\": "
            << (arm.retired ? str(result.arms[arm.retired_by].name) : "null")
            << ", \"metrics\": {";
        const auto& names = metric_names();
        for (std::size_t m = 0; m < names.size(); ++m) {
            if (m > 0) out << ", ";
            const running_stats& acc = arm.metrics[m];
            out << str(names[m]) << ": ";
            write_metric_json(acc, t_interval(acc, result.alpha), out);
        }
        out << "}}" << (k + 1 < result.arms.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

void write_eval_csv(const eval_result& result, const report_options& opts,
                    std::ostream& out) {
    out << "scenario,arm,metric,samples,mean,stddev,ci_lo,ci_hi,min,max\n";
    for (const arm_result& arm : result.arms) {
        const auto& names = metric_names();
        for (std::size_t m = 0; m < names.size(); ++m) {
            const running_stats& acc = arm.metrics[m];
            const confidence_interval ci = t_interval(acc, result.alpha);
            out << opts.scenario << ',' << arm.name << ',' << names[m] << ','
                << acc.count() << ',' << csv_num(acc.mean()) << ','
                << csv_num(acc.sample_stddev()) << ',' << csv_num(ci.lo) << ','
                << csv_num(ci.hi) << ',' << csv_num(acc.min()) << ','
                << csv_num(acc.max()) << '\n';
        }
    }
}

} // namespace richnote::eval
