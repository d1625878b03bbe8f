package repro.cluster

import scala.collection.mutable

/** From-scratch DBSCAN, the clustering method behind SAQL's
  * `cluster(..., method="DBSCAN(eps, minPts)")` primitive (Query 4).
  *
  * Points are the per-group state vectors of one sliding window — at most a
  * few thousand per window — so the O(n²) neighbourhood scan is appropriate
  * and runs on the driver, exactly where SAQL's state maintainer holds the
  * window states.
  */
object DBSCAN {

  /** Cluster label per input point: `Noise` (= -1) marks outliers. */
  val Noise: Int = -1

  /** Euclidean distance — SAQL's `"ed"`. */
  def euclidean(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "dimension mismatch")
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Run DBSCAN over `points` with radius `eps` and density `minPts`
    * (minimum neighbourhood size *including* the point itself, the classic
    * formulation). Returns a label array aligned with `points`: clusters are
    * numbered from 0; noise points get [[Noise]].
    */
  def fit(points: IndexedSeq[Array[Double]], eps: Double, minPts: Int): Array[Int] = {
    require(eps > 0, "eps must be positive")
    require(minPts >= 1, "minPts must be >= 1")
    val n = points.length
    val labels  = Array.fill(n)(Noise)
    val visited = Array.fill(n)(false)

    def neighbours(p: Int): mutable.ArrayBuffer[Int] = {
      val out = mutable.ArrayBuffer.empty[Int]
      var j = 0
      while (j < n) {
        if (euclidean(points(p), points(j)) <= eps) out += j
        j += 1
      }
      out
    }

    var cluster = 0
    var p = 0
    while (p < n) {
      if (!visited(p)) {
        visited(p) = true
        val nbrs = neighbours(p)
        if (nbrs.length >= minPts) {
          // p is a core point: grow a new cluster from it.
          labels(p) = cluster
          var k = 0
          while (k < nbrs.length) {
            val q = nbrs(k)
            if (!visited(q)) {
              visited(q) = true
              val qn = neighbours(q)
              if (qn.length >= minPts) nbrs ++= qn // density-reachable expansion
            }
            if (labels(q) == Noise) labels(q) = cluster
            k += 1
          }
          cluster += 1
        }
      }
      p += 1
    }
    labels
  }

  /** Convenience: which points are outliers (noise) under DBSCAN. */
  def outliers(points: IndexedSeq[Array[Double]], eps: Double, minPts: Int): Array[Boolean] =
    fit(points, eps, minPts).map(_ == Noise)
}
