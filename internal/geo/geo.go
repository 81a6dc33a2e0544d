// Package geo provides geographic primitives for the measurement model:
// coordinates, great-circle distance, a country catalog with Internet
// population weights, and a MaxMind-style prefix geolocation database with
// per-entry error radii.
package geo

import (
	"math"
	"sort"

	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// Coord is a point on the Earth's surface in degrees.
type Coord struct {
	Lat, Lon float64
}

// EarthRadiusKm is the mean Earth radius used for distance computations.
const EarthRadiusKm = 6371.0

// DistanceKm returns the great-circle (haversine) distance between a and b
// in kilometers.
func DistanceKm(a, b Coord) float64 {
	const rad = math.Pi / 180
	lat1, lat2 := a.Lat*rad, b.Lat*rad
	dLat := (b.Lat - a.Lat) * rad
	dLon := (b.Lon - a.Lon) * rad
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Jitter returns a point displaced from c by a random distance up to
// radiusKm, using the provided stream. It is used to scatter prefixes
// around population centers.
func Jitter(s *randx.Stream, c Coord, radiusKm float64) Coord {
	if radiusKm <= 0 {
		return c
	}
	// sqrt for area-uniform placement inside the disk.
	d := radiusKm * math.Sqrt(s.Float64())
	theta := s.Float64() * 2 * math.Pi
	return Offset(c, d, theta)
}

// Offset returns the point distanceKm away from c along bearing theta
// (radians, 0 = due north). A flat-earth approximation is adequate at the
// sub-1000 km scales the model uses.
func Offset(c Coord, distanceKm, theta float64) Coord {
	dLat := distanceKm * math.Cos(theta) / 111.0
	denom := 111.0 * math.Cos(c.Lat*math.Pi/180)
	if math.Abs(denom) < 1 {
		denom = 1
	}
	dLon := distanceKm * math.Sin(theta) / denom
	out := Coord{Lat: c.Lat + dLat, Lon: c.Lon + dLon}
	if out.Lat > 89 {
		out.Lat = 89
	}
	if out.Lat < -89 {
		out.Lat = -89
	}
	for out.Lon > 180 {
		out.Lon -= 360
	}
	for out.Lon < -180 {
		out.Lon += 360
	}
	return out
}

// Location is one geolocation database entry: an estimated position and the
// database's stated error radius, mirroring MaxMind's accuracy_radius.
type Location struct {
	Coord   Coord
	ErrorKm float64
	Country string // ISO-like country code
}

// DB is a prefix geolocation database keyed by /24, as the cache-probing
// pipeline consumes it ("we use MaxMind to map each /24 prefix to a
// geolocation").
type DB struct {
	entries map[netx.Slash24]Location
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{entries: make(map[netx.Slash24]Location)}
}

// Set records the location for a /24.
func (db *DB) Set(p netx.Slash24, loc Location) { db.entries[p] = loc }

// Lookup returns the location recorded for p.
func (db *DB) Lookup(p netx.Slash24) (Location, bool) {
	loc, ok := db.entries[p]
	return loc, ok
}

// Range calls fn for every entry in ascending prefix order until fn returns
// false. The ordering makes iteration deterministic across runs.
func (db *DB) Range(fn func(netx.Slash24, Location) bool) {
	keys := make([]netx.Slash24, 0, len(db.entries))
	for k := range db.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if !fn(k, db.entries[k]) {
			return
		}
	}
}

// PossiblyWithin reports whether the prefix's true location could be within
// radiusKm of center, combining the database position with its error radius
// — the paper's rule for assigning prefixes to a PoP's probing list
// ("prefixes that MaxMind places as possibly within the PoP's service
// radius").
func (loc Location) PossiblyWithin(center Coord, radiusKm float64) bool {
	return DistanceKm(loc.Coord, center) <= radiusKm+loc.ErrorKm
}
