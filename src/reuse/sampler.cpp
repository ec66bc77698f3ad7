#include "reuse/sampler.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace lpp::reuse {

VariableDistanceSampler::VariableDistanceSampler(SamplerConfig cfg)
    : VariableDistanceSampler(cfg, ExternalTag{})
{
    if (cfg.addressSpaceElements > 0)
        stack.reserveElements(cfg.addressSpaceElements);
}

VariableDistanceSampler::VariableDistanceSampler(SamplerConfig cfg,
                                                 ExternalTag)
    : config(cfg),
      qualification(cfg.initialQualification),
      temporal(cfg.initialTemporal),
      spatial(cfg.initialSpatial),
      nextCheck(cfg.checkInterval)
{
}

VariableDistanceSampler
VariableDistanceSampler::externalDistances(SamplerConfig cfg)
{
    // No stack reservation: distances arrive via observe(), so the
    // address-space-sized last-access table is never needed.
    return VariableDistanceSampler(cfg, ExternalTag{});
}

void
VariableDistanceSampler::onAccessBatch(const trace::Addr *addrs, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        VariableDistanceSampler::onAccess(addrs[i]);
}

bool
VariableDistanceSampler::spatiallyIsolated(uint64_t element) const
{
    if (spatial == 0)
        return true;
    auto it = std::lower_bound(sampledElements.begin(),
                               sampledElements.end(), element);
    if (it != sampledElements.end() && *it - element < spatial)
        return false;
    if (it != sampledElements.begin()) {
        --it;
        if (element - *it < spatial)
            return false;
    }
    return true;
}

void
VariableDistanceSampler::onAccess(trace::Addr addr)
{
    uint64_t element = trace::toElement(addr);
    uint64_t now = stack.accessCount();
    uint64_t dist = stack.access(element);
    observe(element, now, dist);
}

void
VariableDistanceSampler::observe(uint64_t element, uint64_t now,
                                 uint64_t dist)
{
    ++accessesSeen;
    // Every caller — onAccess and the sharded sweep's funnel — feeds
    // accesses in stream order with `now` = accesses before this one,
    // and the sub-trace monotonicity below depends on it.
    LPP_DCHECK(now + 1 == accessesSeen,
               "sampler clock out of order: access %llu observed as "
               "number %llu",
               static_cast<unsigned long long>(now),
               static_cast<unsigned long long>(accessesSeen - 1));

    // Below both thresholds no decision can fire, whatever the datum
    // table says — skip the lookup. This keeps the sequential part of
    // the sharded path (which funnels every access through here) to a
    // couple of compares for the typical short-distance reuse.
    if (dist != ReuseStack::infinite &&
        dist >= std::min(temporal, qualification)) {
        const uint32_t *datum = datumIndex.find(element);
        if (datum) {
            if (dist >= temporal) {
                auto &accesses = data[*datum].accesses;
                // Downstream wavelet filtering assumes each datum's
                // sub-trace is strictly time-ordered (merge sorts only
                // across data, not within).
                LPP_DCHECK(accesses.empty() ||
                               accesses.back().time < now,
                           "datum sub-trace not monotone: time %llu "
                           "after %llu",
                           static_cast<unsigned long long>(now),
                           static_cast<unsigned long long>(
                               accesses.back().time));
                accesses.push_back(AccessSample{now, dist});
                ++collected;
            }
        } else if (dist >= qualification &&
                   data.size() < config.maxDataSamples &&
                   spatiallyIsolated(element)) {
            datumIndex.insert(element, static_cast<uint32_t>(data.size()));
            sampledElements.insert(
                std::lower_bound(sampledElements.begin(),
                                 sampledElements.end(), element),
                element);
            data.push_back(DataSample{element, {}});
            data.back().accesses.push_back(AccessSample{now, dist});
            ++collected;
        }
    }

    if (accessesSeen >= nextCheck) {
        feedback();
        nextCheck = accessesSeen + config.checkInterval;
    }
}

void
VariableDistanceSampler::feedback()
{
    uint64_t recent = collected - collectedAtLastCheck;
    collectedAtLastCheck = collected;

    double projected;
    uint64_t now = accessesSeen;
    if (config.expectedAccesses > now) {
        double remaining =
            static_cast<double>(config.expectedAccesses - now);
        double rate = static_cast<double>(recent) /
                      static_cast<double>(config.checkInterval);
        projected = static_cast<double>(collected) + rate * remaining;
    } else {
        // No length hint (or already past it): steer the recent rate
        // toward one target's worth per expected run of 32 checks.
        projected = static_cast<double>(recent) * 32.0;
    }

    // Scale thresholds by how far off target the projection is; the
    // factor is clamped so one noisy interval cannot swing them wildly,
    // and floor/ceiling bounds keep them inside the configured range
    // (no overflow to 0, no drift into within-phase reuse distances).
    auto scale = [](uint64_t value, double factor, uint64_t lo,
                    uint64_t hi) {
        double scaled = static_cast<double>(std::max<uint64_t>(value, 1)) *
                        factor;
        scaled = std::min(scaled, static_cast<double>(hi));
        scaled = std::max(scaled, static_cast<double>(lo));
        return static_cast<uint64_t>(scaled);
    };

    double target = static_cast<double>(config.targetSamples);
    double ratio = projected / target;
    // Raising thresholds cannot undo past over-collection, so only raise
    // while samples are actually still flowing; otherwise a permanently
    // exceeded target would ratchet the thresholds to the cap.
    if (ratio > 1.4 && recent > 0) {
        double f = std::min(ratio, 8.0);
        qualification = scale(qualification, f,
                              config.floorQualification,
                              config.ceilQualification);
        temporal = scale(temporal, f, config.floorTemporal,
                         config.ceilTemporal);
        spatial = scale(spatial, f, 0, 1ULL << 40);
        ++adjustCount;
    } else if (ratio < 0.6 &&
               static_cast<double>(collected) < target) {
        double f = std::max(ratio / 0.9, 1.0 / 8.0);
        qualification = scale(qualification, f,
                              config.floorQualification,
                              config.ceilQualification);
        temporal = scale(temporal, f, config.floorTemporal,
                         config.ceilTemporal);
        spatial = spatial / 2;
        ++adjustCount;
    }

    // The clamp above must keep both distance thresholds inside their
    // configured band; drifting below the floor would reclassify
    // within-phase reuse as cross-phase samples.
    LPP_DCHECK(qualification >= config.floorQualification &&
                   qualification <= config.ceilQualification,
               "qualification threshold %llu outside [%llu, %llu]",
               static_cast<unsigned long long>(qualification),
               static_cast<unsigned long long>(config.floorQualification),
               static_cast<unsigned long long>(config.ceilQualification));
    LPP_DCHECK(temporal >= config.floorTemporal &&
                   temporal <= config.ceilTemporal,
               "temporal threshold %llu outside [%llu, %llu]",
               static_cast<unsigned long long>(temporal),
               static_cast<unsigned long long>(config.floorTemporal),
               static_cast<unsigned long long>(config.ceilTemporal));
}

std::vector<SamplePoint>
VariableDistanceSampler::mergedTrace() const
{
    std::vector<SamplePoint> merged;
    merged.reserve(collected);
    for (uint32_t di = 0; di < data.size(); ++di) {
        for (const auto &a : data[di].accesses)
            merged.push_back(SamplePoint{a.time, a.distance, di});
    }
    std::sort(merged.begin(), merged.end(),
              [](const SamplePoint &a, const SamplePoint &b) {
                  return a.time < b.time;
              });
    return merged;
}

} // namespace lpp::reuse
