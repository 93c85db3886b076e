#include "obs/observability.hh"

#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace bsim::obs
{

namespace
{

std::vector<std::string>
bankLabels(const dram::DramConfig &cfg)
{
    std::vector<std::string> labels;
    labels.reserve(std::size_t(cfg.channels) * cfg.ranksPerChannel *
                   cfg.banksPerRank);
    for (std::uint32_t ch = 0; ch < cfg.channels; ++ch)
        for (std::uint32_t r = 0; r < cfg.ranksPerChannel; ++r)
            for (std::uint32_t b = 0; b < cfg.banksPerRank; ++b)
                labels.push_back("ch" + std::to_string(ch) + "_r" +
                                 std::to_string(r) + "_b" +
                                 std::to_string(b));
    return labels;
}

} // namespace

Observability::Observability(const ObsConfig &cfg,
                             const dram::DramConfig &dram, double bus_mhz)
    : cfg_(cfg), dram_(dram), busMHz_(bus_mhz)
{
    if (cfg_.latencyBreakdown)
        latency_ = std::make_unique<LatencyBreakdown>();
    if (cfg_.metricsInterval)
        sampler_ = std::make_unique<MetricsSampler>(
            cfg_.metricsInterval, bankLabels(dram_), cfg_.selfProf);
    if (cfg_.commandTrace)
        log_ = std::make_unique<dram::CommandLog>(cfg_.traceCapacity);
    if (cfg_.stallAttribution || cfg_.critPathOn())
        // The tracer's victim charges ride on the stall scans, so
        // critical-path tracing implies the accountant.
        stalls_ = std::make_unique<StallAttribution>(
            dram_.channels, dram_.ranksPerChannel * dram_.banksPerRank,
            bankLabels(dram_));
    if (cfg_.critPathOn()) {
        critpath_ = std::make_unique<CritPathTracer>(cfg_.accessTraceOut);
        if (cfg_.critPathRetain)
            critpath_->setRetainCompleted(true);
        stalls_->attachTracer(critpath_.get());
    }
    if (cfg_.audit != AuditMode::Off)
        auditor_ = std::make_unique<ProtocolAuditor>(cfg_.audit, dram_);
    if (cfg_.engineIntrospect)
        introspect_ = std::make_unique<EngineIntrospect>(dram_.channels);
}

void
Observability::writeIntrospectJson(std::ostream &os) const
{
    if (!introspect_)
        throwSimError(ErrorCategory::Config, "observability: introspect output requested without the pillar");
    JsonWriter w(os);
    introspect_->writeJson(w);
    os << "\n";
}

void
Observability::writeChromeTrace(std::ostream &os) const
{
    if (!log_)
        throwSimError(ErrorCategory::Config, "observability: chrome trace requested without commandTrace");
    ChromeTraceOptions opts;
    opts.busClock.mhz = busMHz_;
    obs::writeChromeTrace(os, *log_, dram_, sampler_.get(), opts);
}

void
Observability::writeMetricsCsv(std::ostream &os) const
{
    if (!sampler_)
        throwSimError(ErrorCategory::Config, "observability: metrics requested without a sampler");
    sampler_->writeCsv(os);
}

void
Observability::writeMetricsJson(std::ostream &os) const
{
    if (!sampler_)
        throwSimError(ErrorCategory::Config, "observability: metrics requested without a sampler");
    sampler_->writeJson(os);
}

void
Observability::writeStallJson(std::ostream &os) const
{
    if (!stalls_)
        throwSimError(ErrorCategory::Config, "observability: stall output requested without attribution");
    stalls_->writeJson(os);
}

void
Observability::writeStallText(std::ostream &os) const
{
    if (!stalls_)
        throwSimError(ErrorCategory::Config, "observability: stall output requested without attribution");
    stalls_->writeText(os);
}

} // namespace bsim::obs
