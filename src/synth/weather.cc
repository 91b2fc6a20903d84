#include "synth/weather.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace earthplus::synth {

WeatherProcess::WeatherProcess(const WeatherParams &params)
    : params_(params)
{
    EP_ASSERT(params.pClear >= 0.0 && params.pPartial >= 0.0 &&
              params.pClear + params.pPartial <= 1.0,
              "invalid weather mixture");
}

double
WeatherProcess::coverage(int locationId, int day) const
{
    uint64_t salt = (static_cast<uint64_t>(static_cast<uint32_t>(
                         locationId)) << 32) ^
                    static_cast<uint64_t>(static_cast<uint32_t>(day));
    Rng rng = Rng(params_.seed).fork(salt);

    // Seasonal weight: 1 at mid-summer (day ~196), 0 at mid-winter.
    double doy = std::fmod(std::fmod(static_cast<double>(day), 365.0) +
                           365.0, 365.0);
    double w = 0.5 * (1.0 + std::cos(2.0 * M_PI * (doy - 196.0) / 365.0));
    double s = params_.seasonality;
    // Modulate around the mean so the yearly averages stay put.
    double pc = params_.pClear * (1.0 + s * (2.0 * w - 1.0) * 0.85);
    double pp = params_.pPartial * (1.0 + s * (2.0 * w - 1.0) * 0.5);

    double u = rng.uniform();
    if (u < pc)
        return rng.uniform(0.0, 0.01);
    if (u < pc + pp)
        return rng.uniform(0.01, 0.5);
    return rng.uniform(params_.overcastLo, 1.0);
}

} // namespace earthplus::synth
