package repro.perfbench

import java.nio.file.{Files, Paths}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import Workloads.time

/** Peak Spark storage memory (cached blocks, broadcasts) while an operation
  * runs, sampled from the block manager master every few milliseconds.
  */
final class StorageSampler(sc: SparkContext) extends Thread("storage-sampler") {
  setDaemon(true)
  @volatile private var running = true
  @volatile private var active = false
  private val peak = new AtomicLong

  def used(): Long = sc.getExecutorMemoryStatus.values.map { case (max, free) => max - free }.sum

  /** Start sampling; returns the storage memory in use now. */
  def mark(): Long = { val u = used(); peak.set(u); active = true; u }
  /** Stop sampling; returns the peak seen since [[mark]]. */
  def peakSinceMark(): Long = { active = false; math.max(peak.get, used()) }
  def shutdown(): Unit = { running = false; join() }

  override def run(): Unit = while (running) {
    if (active) { val u = used(); peak.accumulateAndGet(u, math.max) }
    Thread.sleep(5)
  }
}

/** One timed operation. */
final case class Sample(pass: Int, latencyS: Double,
                        peakBytes: Long, baseBytes: Long, alerts: Int,
                        groups: Int, parseMs: Double, span: Option[OpSpan])

/** The benchmark entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * A run sets the workload up three times (reporting the median as
  * `setup_s`), computes the reference alerts, warms up until pass times stop
  * falling, then runs closed-loop passes for `--seconds`. Every operation's
  * alerts are checked against the reference. With `--trace 1` half of the
  * timed passes are traced and the per-layer metrics come from them.
  */
object Main {
  private val SetUps = 3
  private val MiB = 1024.0 * 1024.0

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.floor.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** JVM time spent in garbage collection and in JIT compilation so far. */
  private def gcSeconds(): Double =
    java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala
      .map(_.getCollectionTime).sum / 1e3
  private def jitSeconds(): Double =
    java.lang.management.ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3

  private def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val name = need("workload")
    val workload = Workloads.all.getOrElse(name,
      usage(s"unknown workload '$name' (one of ${Workloads.all.keys.toSeq.sorted.mkString(", ")})"))
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace must be 0 or 1, got '$t'")
    }
    val outDir = opts.getOrElse("out", ".")

    val cores = Runtime.getRuntime.availableProcessors
    val (spark, sessionS) = time(SparkSession.builder()
      .appName("perfbench")
      .master(s"local[$cores]")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", cores.toString)
      // The demo queries generate more distinct classes than Spark's default
      // 100-entry codegen cache holds. At the default every pass recompiles
      // (and re-JITs) its generated code, and pass times never settle in a run.
      .config("spark.sql.codegen.cache.maxEntries", "2000")
      .getOrCreate())
    try run(spark, name, workload, seed, seconds, trace, outDir, sessionS)
    finally spark.stop()
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg\n" +
      "usage: --workload <apt8|concurrent20|slice8> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  private def say(line: String): Unit = println(s"[perfbench] $line")

  /** Runs the workload and prints its report, the result JSON last. */
  private def run(spark: SparkSession, name: String, workload: Workload, seed: Long,
                  seconds: Double, trace: Boolean, outDir: String, sessionS: Double): Unit = {
    val sc = spark.sparkContext
    val jvmArgs = java.lang.management.ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    say(s"commit=${sys.props.getOrElse("perfbench.commit", "unknown")} " +
      s"source=${sys.props.getOrElse("perfbench.source", "unknown")} " +
      s"nproc=${Runtime.getRuntime.availableProcessors} java=${sys.props("java.version")} " +
      s"spark=${spark.version} scala=${scala.util.Properties.versionNumberString} " +
      f"heap_mb=${Runtime.getRuntime.maxMemory / MiB}%.0f " +
      s"jvm_flags=${jvmArgs.filter(a => a.startsWith("-X") && !a.startsWith("-Xlog")).mkString(",")}")
    say(s"spark master=${sc.master} " +
      s"shuffle_partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"broadcast_threshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
      s"adaptive=${spark.conf.get("spark.sql.adaptive.enabled")} " +
      s"codegen_cache=${sc.getConf.get("spark.sql.codegen.cache.maxEntries")} " +
      f"session_s=$sessionS%.3f")

    val failures = mutable.ArrayBuffer.empty[String]
    var failedOps = 0
    val sampler = new StorageSampler(sc)
    sampler.start()
    // ---- set-up, several times; the last one is kept.
    var prepared: Prepared = null
    val setUps = (1 to SetUps).map { _ =>
      if (prepared != null) prepared.release()
      val (p, s) = time(workload.setUp(spark, seed))
      prepared = p
      (s, p)
    }
    val p = prepared
    val setupS = median(setUps.map(_._1))
    val inputBytes = sampler.used()
    say(s"workload=$name seed=$seed input_rows=${p.inputRows} " +
      f"input_cache_mb=${inputBytes / MiB}%.2f " +
      s"set-ups=${setUps.map(s => f"${s._1}%.3f").mkString(",")} s")

    // ---- reference alerts (the independent arm) and their own checks.
    val (refFailures, refS) = time(scala.util.Try(p.reference())
      .fold(e => Seq(s"threw $e"), identity))
    failures ++= refFailures.map("reference: " + _)
    if (refFailures.nonEmpty) failedOps += 1
    say(f"reference_s=$refS%.3f reference_failures=${refFailures.size}")

    var opIndex = 0
    var attempted = 1 // the reference computation
    val tracer = if (trace) Some(new Tracer(spark)) else None

    def runPass(pass: Int, traced: Boolean): Seq[Sample] = (0 until p.passSize).map { _ =>
      val i = opIndex
      opIndex += 1
      attempted += 1
      if (traced) tracer.get.begin()
      val base = sampler.mark()
      val startMs = System.currentTimeMillis()
      val t0 = System.nanoTime()
      val result = scala.util.Try(p.op(i))
      val latency = (System.nanoTime() - t0) / 1e9
      val endMs = System.currentTimeMillis()
      val peak = sampler.peakSinceMark()
      val span = if (traced) Some(tracer.get.record(i, p.opName(i), startMs, endMs, latency)) else None
      val problems = result.fold(e => Seq(s"threw $e"), r => p.check(i, r))
      if (problems.nonEmpty) failedOps += 1
      failures ++= problems.map(f => s"op $i (${p.opName(i)}): $f")
      val r = result.getOrElse(OpResult(Map.empty, 0, 0.0))
      Sample(pass, latency, peak, base, r.alerts.values.map(_.size).sum,
             r.groups, r.parseMs, span)
    }
    def passTime(s: Seq[Sample]): Double = s.map(_.latencyS).sum

    // ---- warm-up: whole passes for at least `seconds` and two passes.
    // Pass times still fall slowly after that (C2 compilation needs ~45 s
    // of passes to settle), but a fixed amount of warm-up work leaves every
    // run at the same point of that curve; the timed line reports the trend.
    val warm = mutable.ArrayBuffer.empty[Double]
    val warmStart = System.nanoTime()
    while (warm.size < 2 || (System.nanoTime() - warmStart) / 1e9 < seconds)
      warm += passTime(runPass(-1, traced = false))
    say(s"warm-up passes=${warm.size} (${warm.map(w => f"$w%.3f").mkString(",")} s)")

    // ---- timed closed loop: whole passes until `seconds` have elapsed
    // (at least two).
    val samples = mutable.ArrayBuffer.empty[Sample]
    val (gc0, jit0) = (gcSeconds(), jitSeconds())
    val timedStart = System.nanoTime()
    var pass = 0
    while (pass < 2 || (System.nanoTime() - timedStart) / 1e9 < seconds) {
      samples ++= runPass(pass, traced = trace && pass % 2 == 0)
      pass += 1
    }
    sampler.shutdown()

    val lat = samples.map(_.latencyS).toSeq
    val passTimes = samples.groupBy(_.pass).toSeq.sortBy(_._1).map(x => passTime(x._2.toSeq))
    val half = passTimes.size / 2
    val trend = mean(passTimes.takeRight(half)) / mean(passTimes.take(half))
    val beyondP90 = lat.count(_ > quantile(lat, 0.9))
    say(s"timed passes=$pass ops=${lat.size} " +
      f"wall_s=${(System.nanoTime() - timedStart) / 1e9}%.3f " +
      f"trend=$trend%.3f (mean of last $half passes / first $half) " +
      f"gc_s=${gcSeconds() - gc0}%.3f jit_s=${jitSeconds() - jit0}%.3f " +
      s"passes=${passTimes.map(t => f"$t%.3f").mkString(",")} s")
    say(f"alert_latency_s_p90 = ${quantile(lat, 0.9)}%.4f s ($beyondP90 of ${lat.size} samples beyond it)")
    say(s"failed_frac = $failedOps/$attempted operations " +
      s"(the reference computation, warm-up and timed operations)")
    failures.take(20).foreach(f => say(s"FAILURE $f"))

    val metrics: Seq[(String, Double, String)] =
      if (!trace) Seq(
        ("setup_s", setupS, "s"),
        ("events_per_s", p.inputRows * p.passSize / median(passTimes), "1/s"),
        ("alert_latency_s_p50", median(lat), "s"),
        ("peak_cached_mb", median(samples.map(_.peakBytes.toDouble).toSeq) / MiB, "MB"),
      )
      else layerMetrics(samples.toSeq, setUps.map(_._2), inputBytes)
    metrics.foreach { case (k, v, u) => say(f"metric $k = $v%.6f $u") }

    tracer.foreach { t =>
      val path = Paths.get(outDir, s"trace-$name-seed$seed.jsonl")
      Files.createDirectories(path.getParent)
      Files.write(path, t.jsonLines.asJava)
      say(s"trace spans written to $path")
    }

    val json = metrics.map { case (k, v, u) => s""""$k": {"value": $v, "unit": "$u"}""" }
      .mkString(", ")
    println(s"""{"correct": ${failures.isEmpty}, "attempted": $attempted, "failed": $failedOps, "metrics": {$json}}""")
  }

  /** Per-layer metrics, each per traced operation (means), plus the set-up's
    * own layers and the tracing overhead.
    */
  private def layerMetrics(samples: Seq[Sample], setUps: Seq[Prepared],
                           inputBytes: Long): Seq[(String, Double, String)] = {
    val traced = samples.filter(_.span.isDefined)
    val untraced = samples.filter(_.span.isEmpty)
    val spans = traced.map(_.span.get)
    def perOp(f: OpSpan => Double): Double = mean(spans.map(f))
    def execs(o: OpSpan, layer: String) = o.execs.filter(_.layer == layer)
    def layer(l: String): Seq[(String, Double, String)] = Seq(
      (s"$l.jobs", perOp(o => execs(o, l).map(_.jobs).sum.toDouble), "count"),
      (s"$l.wall_s", perOp(o => execs(o, l).map(e => (e.endMs - e.startMs) / 1e3).sum), "s"),
      (s"$l.task_s", perOp(o => execs(o, l).map(_.taskMs / 1e3).sum), "s"))
    def rows(l: String, kind: String): Double =
      perOp(o => execs(o, l).map(_.rows.getOrElse(kind, 0L).toDouble).sum)
    def resultRows(l: String): Double = perOp(o => execs(o, l).map(_.resultRows.toDouble).sum)
    /** Operation time not covered by any SQL execution: driver-side work. */
    def driverS(o: OpSpan): Double = {
      val intervals = o.execs.map(e => (e.startMs, e.endMs)).sortBy(_._1)
      var covered = 0L
      var end = Long.MinValue
      for ((s, e) <- intervals) {
        val s1 = math.max(s, end)
        if (e > s1) covered += e - s1
        end = math.max(end, e)
      }
      math.max(0.0, o.wallS - covered / 1e3)
    }
    val parseMs =
      if (samples.exists(_.parseMs > 0)) mean(traced.map(_.parseMs))
      else median(setUps.map(_.parseMs))
    Seq(
      ("events.gen_s", median(setUps.map(_.genS)), "s"),
      ("events.select_s", median(setUps.map(_.selectS)), "s"),
      ("events.rows", setUps.last.inputRows.toDouble, "count"),
      ("events.input_cache_mb", inputBytes / MiB, "MB"),
      ("saql.parse_ms", parseMs, "ms"),
      ("scheduler.groups", mean(traced.map(_.groups.toDouble)), "count"),
      ("scheduler.master_rows", rows("scheduler", "filter"), "count"),
      ("scheduler.copy_mb", median(traced.map(s => (s.peakBytes - s.baseBytes).toDouble)) / MiB, "MB"),
    ) ++ layer("scheduler").take(2) ++ layer("matcher") ++ Seq(
      ("matcher.candidate_rows", rows("matcher", "filter"), "count"),
      ("matcher.join_rows", rows("matcher", "join"), "count"),
      ("matcher.match_rows", resultRows("matcher"), "count"),
    ) ++ layer("state") ++ Seq(
      ("state.rows_in", rows("state", "filter"), "count"),
      ("state.rows_collected", resultRows("state"), "count"),
      ("engine.driver_s", perOp(driverS), "s"),
      ("engine.alerts", mean(traced.map(_.alerts.toDouble)), "count"),
      ("spark.sql_executions", perOp(_.execs.size.toDouble), "count"),
      ("spark.jobs", perOp(_.execs.map(_.jobs).sum.toDouble), "count"),
      ("spark.stages", perOp(_.execs.map(_.stages).sum.toDouble), "count"),
      ("spark.tasks", perOp(_.execs.map(_.tasks).sum.toDouble), "count"),
      ("spark.task_s", perOp(_.execs.map(_.taskMs / 1e3).sum), "s"),
      ("spark.shuffle_write_kb", perOp(_.execs.map(_.shuffleWriteBytes / 1024.0).sum), "KB"),
      ("trace.overhead_s",
        median(traced.map(_.latencyS)) - median(untraced.map(_.latencyS)), "s"),
    )
  }
}
