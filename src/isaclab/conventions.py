"""Sign, phase and unit conventions used by every module.

The delay-Doppler response map is evaluated with positive exponents in both
coordinates,

    g(t, f) = sum_p h_p * exp(+j 2 pi t nu_p) * exp(+j 2 pi f tau_p),

while the time-domain channel applies the delay as a time shift u(t - tau_p)
and the Doppler as a modulation applied at the channel *output* (post-delay):

    y(t) = sum_p h_p * u(t - tau_p) * exp(+j 2 pi nu_p t) + n(t).

Signal energy uses the continuous-time convention E = sum |u[n]|^2 / fs, so
that the ambiguity surface evaluated at the origin equals the signal energy.
All information quantities are in nats (natural logarithm).
"""

SPEED_OF_LIGHT = 299_792_458.0  # m/s
