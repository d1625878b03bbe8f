package repro.report

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AlertRecord, QueryEngine, Scheduler}
import repro.events.{AttackTrace, MonitoringData}
import repro.queries.DemoQueries
import repro.saql.Ast.SaqlQuery
import repro.saql.Parser

/** The four evaluation tables (DESIGN.md §2). The demo paper has no
  * numbered tables; these materialise its demonstration outline: T1 attack
  * detection by the 8 queries, T2 per-model engine throughput, T3 the
  * master-dependent-query scheme, T4 advanced-model accuracy.
  *
  * Each `tN()` returns (formatted table, raw rows) so the bench suites can
  * assert the paper's qualitative shape and the jobs can print the rows.
  */
object Tables {

  def fmt(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  // -------------------------------------------------------- T1: detection

  final case class T1Row(query: String, model: String, step: String,
                         alerts: Int, detected: Boolean, latencyMs: Long)

  /** Run the 8 demo queries over the replayed attack stream and report
    * detection + latency per query.
    */
  def t1(spark: SparkSession, sf: Double = 0.1,
         attackStartMs: Long = 3_600_000L): (String, Seq[T1Row]) = {
    val stream = AttackTrace.withBackground(spark, sf = sf, seed = 0,
      attackStartMs = attackStartMs).cache()
    stream.count() // materialise once

    val rows = DemoQueries.all().map { case (step, q, evidence) =>
      val alerts = QueryEngine.run(stream, q)
      val hits = alerts.filter(a => evidence(a.values))
      val latency = hits.headOption
        .map(_.ts - (attackStartMs + AttackTrace.stepStartMs(step))).getOrElse(-1L)
      T1Row(q.name, q.modelType.toString.stripSuffix("Model").toLowerCase,
            step, alerts.size, hits.nonEmpty, latency)
    }
    stream.unpersist()
    val table = fmt(
      Seq("query", "model", "step", "alerts", "detected", "latency_s"),
      rows.map(r => Seq(r.query, r.model, r.step, r.alerts.toString,
        if (r.detected) "yes" else "no",
        if (r.latencyMs < 0) "-" else f"${r.latencyMs / 1000.0}%.1f")))
    (table, rows)
  }

  // ------------------------------------------------------- T2: throughput

  final case class T2Row(model: String, events: Long, wallMs: Long,
                         eventsPerSec: Long, alerts: Int)

  /** Single-query engine cost per anomaly-model type at growing stream
    * sizes (events/s over the bounded replayed stream).
    */
  def t2(spark: SparkSession,
         sfs: Seq[Double] = Seq(0.005, 0.05, 0.5)): (String, Seq[T2Row]) = {
    // Warm-up: JIT + codegen caches, so the smallest measured run is not
    // charged Spark's first-query setup cost.
    locally {
      val warm = AttackTrace.withBackground(spark, sf = sfs.min, seed = 1,
        attackStartMs = 3_600_000L).cache()
      warm.count()
      QueryEngine.run(warm, DemoQueries.r5DataExfiltration(1L))
      QueryEngine.run(warm, DemoQueries.a2TimeSeriesSma(1L))
      warm.unpersist()
    }
    val rows = sfs.flatMap { sf =>
      val stream = AttackTrace.withBackground(spark, sf = sf, seed = 0,
        attackStartMs = 3_600_000L).cache()
      val n = stream.count()
      val queries = Seq(
        "rule"       -> DemoQueries.r5DataExfiltration(1L),
        "timeseries" -> DemoQueries.a2TimeSeriesSma(1L),
        "invariant"  -> DemoQueries.a1InvariantExcel(0L),
        "outlier"    -> DemoQueries.a3OutlierDbscan(1L),
      )
      val out = queries.map { case (model, q) =>
        val t0 = System.nanoTime()
        val alerts = QueryEngine.run(stream, q)
        val wall = math.max(1L, (System.nanoTime() - t0) / 1_000_000)
        T2Row(model, n, wall, n * 1000 / wall, alerts.size)
      }
      stream.unpersist()
      out
    }
    val table = fmt(
      Seq("model", "events", "wall_ms", "events_per_s", "alerts"),
      rows.map(r => Seq(r.model, r.events.toString, r.wallMs.toString,
                        r.eventsPerSec.toString, r.alerts.toString)))
    (table, rows)
  }

  // -------------------------------------------- T3: master-dependent scheme

  final case class T3Row(n: Int, scheme: String, groups: Int,
                         rowsScanned: Long, rowsCopied: Long, wallMs: Long)

  /** Build N semantically compatible concurrent queries (network-volume
    * monitors with per-process / per-destination constraints under one
    * unconstrained master).
    */
  def concurrentQueries(n: Int): Seq[SaqlQuery] = {
    val master = Parser.parse(
      """proc p write ip i as evt #time(10 min)
        |state ss { amt := sum(evt.amount) } group by p
        |alert ss.amt > 100000
        |return p, ss.amt""".stripMargin, "net_master")
    val exes = Seq("chrome.exe", "outlook.exe", "sqlservr.exe", "apache.exe",
      "svchost.exe", "ntpd", "backup.exe", "excel.exe")
    val deps = (0 until n - 1).map { i =>
      val exe = exes(i % exes.size)
      // Distinct thresholds make the dependents semantically distinct
      // queries, all subsumed by the unconstrained master.
      Parser.parse(
        s"""proc p["%$exe"] write ip i as evt #time(10 min)
           |state ss { amt := sum(evt.amount) } group by p
           |alert ss.amt > ${50000 + i * 10000}
           |return p, ss.amt""".stripMargin, f"net_dep_$i%02d")
    }
    master +: deps
  }

  def t3(spark: SparkSession, sf: Double = 0.05,
         ns: Seq[Int] = Seq(4, 8, 16, 20)): (String, Seq[T3Row]) = {
    val stream = MonitoringData.events(spark, sf = sf, seed = 0).cache()
    stream.count()
    val rows = ns.flatMap { n =>
      val qs = concurrentQueries(n)
      val ind = Scheduler.runIndependent(stream, qs)
      val mdq = Scheduler.runMasterDependent(stream, qs)
      require(ind.alerts == mdq.alerts,
        s"scheme changed query results at n=$n") // correctness guard
      Seq(
        T3Row(n, "independent", ind.stats.groups, ind.stats.rowsScanned,
              ind.stats.rowsCopied, ind.stats.wallMs),
        T3Row(n, "master-dep", mdq.stats.groups, mdq.stats.rowsScanned,
              mdq.stats.rowsCopied, mdq.stats.wallMs))
    }
    stream.unpersist()
    val table = fmt(
      Seq("n_queries", "scheme", "groups", "rows_scanned", "rows_copied",
          "copy_reduction", "wall_ms"),
      rows.grouped(2).flatMap { case Seq(i, m) =>
        Seq(
          Seq(i.n.toString, i.scheme, i.groups.toString, i.rowsScanned.toString,
              i.rowsCopied.toString, "1.0x", i.wallMs.toString),
          Seq(m.n.toString, m.scheme, m.groups.toString, m.rowsScanned.toString,
              m.rowsCopied.toString,
              f"${i.rowsCopied.toDouble / m.rowsCopied}%.1fx", m.wallMs.toString))
      }.toSeq)
    (table, rows)
  }

  // ------------------------------------------------------- T4: accuracy

  final case class T4Row(model: String, magnitude: String, injected: Int,
                         tp: Int, fp: Int, fn: Int) {
    def precision: Double = if (tp + fp == 0) 1.0 else tp.toDouble / (tp + fp)
    def recall: Double = if (tp + fn == 0) 1.0 else tp.toDouble / (tp + fn)
  }

  def t4(spark: SparkSession): (String, Seq[T4Row]) = {
    val rows =
      TestStreams.smaSweep(spark) ++ TestStreams.invariantSweep(spark) ++
        TestStreams.outlierSweep(spark)
    val table = fmt(
      Seq("model", "anomaly_magnitude", "injected", "tp", "fp", "fn",
          "precision", "recall"),
      rows.map(r => Seq(r.model, r.magnitude, r.injected.toString,
        r.tp.toString, r.fp.toString, r.fn.toString,
        f"${r.precision}%.2f", f"${r.recall}%.2f")))
    (table, rows)
  }
}
