// Unit constants and conversions. The codebase stores:
//   bandwidth  : GB/s (bytes)     time : seconds     data size : bytes
//   power      : watts            cost : USD
// These helpers make unit intent explicit at call sites.
#pragma once

namespace ihbd::units {

inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;
inline constexpr double kTera = 1e12;

/// Gbit/s -> GB/s (decimal).
constexpr double gbps_to_GBps(double gbps) { return gbps / 8.0; }
/// GB/s -> Gbit/s.
constexpr double GBps_to_gbps(double gBps) { return gBps * 8.0; }

/// Microseconds -> seconds.
constexpr double us(double v) { return v * 1e-6; }
/// Milliseconds -> seconds.
constexpr double ms(double v) { return v * 1e-3; }
/// Seconds -> microseconds.
constexpr double to_us(double seconds) { return seconds * 1e6; }

/// MiB/GiB in bytes.
inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = 1024.0 * kMiB;

}  // namespace ihbd::units
