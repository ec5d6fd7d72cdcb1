package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Benchmark runner: builds a seeded workload several times, runs one
  * untimed warm-up pass, then measured passes for the requested seconds,
  * checks every pass's outputs, and prints the metrics. The last line of
  * standard output is the JSON result.
  *
  * {{{
  * Main --workload criteo-full-75k --seed 1 --seconds 20 --trace 0 \
  *      --work-dir DIR --out-dir DIR [--source DIGEST]
  * }}}
  */
object Main {

  val Workloads = Seq("criteo-full-75k", "criteo-uniform-3k", "cloc-pipeline")

  /** End-to-end metrics, printed with `--trace 0`. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "train_samples_per_s"  -> "samples/s",
    "local_samples_per_s"  -> "samples/s",
    "select_samples_per_s" -> "samples/s",
    "pipeline_s"           -> "s",
    "final_acc"            -> "share",
    "setup_s"              -> "s",
    "peak_heap_mb"         -> "MB",
    "ok_share"             -> "share")

  /** Per-layer metrics, printed with `--trace 1`. */
  val PerLayer: Seq[(String, String)] = Seq(
    "storage.lookup_ms_per_request"    -> "ms",
    "storage.lookup_requests"          -> "count",
    "storage.probe_lookup_ms.750"      -> "ms",
    "storage.probe_lookup_ms.3k"       -> "ms",
    "storage.probe_lookup_ms.75k"      -> "ms",
    "storage.probe_lookup_us_per_key.750" -> "us",
    "storage.probe_lookup_us_per_key.3k"  -> "us",
    "storage.probe_lookup_us_per_key.75k" -> "us",
    "storage.retrieve_samples_per_s"   -> "samples/s",
    "storage.read_calls_per_sample"    -> "count",
    "storage.read_bytes_per_sample"    -> "B",
    "storage.size_calls_per_sample"    -> "count",
    "storage.ingest_ms"                -> "ms",
    "selector.inform_ms"               -> "ms",
    "selector.select_ms"               -> "ms",
    "selector.tss_write_ms"            -> "ms",
    "selector.tss_write_bytes"         -> "B",
    "selector.tss_read_ms"             -> "ms",
    "selector.tss_list_calls"          -> "count",
    "selector.tss_read_calls"          -> "count",
    "trainer.batch_wait_ms_p50"        -> "ms",
    "trainer.batch_wait_ms_p99"        -> "ms",
    "trainer.batches"                  -> "count",
    "trainer.stall_share"              -> "share",
    "trainer.step_ms"                  -> "ms",
    "trainer.parse_us_per_sample"      -> "us",
    "trainer.local_batch_wait_ms_p50"  -> "ms",
    "trainer.samples_trained"          -> "count",
    "trainer.train_ms.full"            -> "ms",
    "trainer.train_ms.uniform50"       -> "ms",
    "trainer.train_ms.gradnorm50"      -> "ms",
    "modelstorage.bytes_per_model"     -> "B",
    "modelstorage.write_ms"            -> "ms",
    "modelstorage.read_ms"             -> "ms",
    "modelstorage.reads"               -> "count",
    "evaluator.samples_evaluated"      -> "count",
    "evaluator.eval_ms_per_set"        -> "ms",
    "core.non_train_ms.full"           -> "ms",
    "core.non_train_ms.uniform50"      -> "ms",
    "core.non_train_ms.gradnorm50"     -> "ms",
    "modyn_local_ratio"                -> "ratio",
    "trace_overhead_share.train"       -> "share",
    "trace_overhead_share.pipeline"    -> "share")

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps       = 3
  /** Measured passes an untraced run makes at least. */
  val MinPasses       = 4
  /** A traced run makes at least this many traced and untraced passes. */
  val MinTracedPasses = 2
  /** No pass starts later than this after JVM start, so a run ends well
    * within its time limit on a slow machine.
    */
  val LastPassStartSec = 100

  final case class Summary(median: Double, q1: Double, q3: Double, n: Int)

  def summarize(xs: Seq[Double]): Option[Summary] =
    if (xs.isEmpty) None
    else { val (a, b) = Stats.quartiles(xs); Some(Summary(Stats.median(xs), a, b, xs.length)) }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = need("workload")
    if (!Workloads.contains(workload)) usage(s"unknown workload '$workload'")
    val rc = new RunContext(need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      need("work-dir"), need("out-dir"))
    Files.createDirectories(Paths.get(rc.workDir))
    Files.createDirectories(Paths.get(rc.outDir))

    val wl: Workload = workload match {
      case "criteo-full-75k"   => new CriteoWorkload(CriteoWorkload.Full75k, rc)
      case "criteo-uniform-3k" => new CriteoWorkload(CriteoWorkload.Uniform3k, rc)
      case "cloc-pipeline"     => new ClocWorkload(rc)
    }
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime

    val setupNs = (0 until SetupReps).flatMap(i => rc.op("setup")(wl.setup(s"${rc.workDir}/setup_$i")))
    if (setupNs.isEmpty) { System.err.println("no set-up succeeded"); sys.exit(1) }

    settleFileSystem()
    rc.tracer.pass = 0
    wl.pass(0, traced = false, new PassOutcome) // warm-up: JIT, caches
    System.gc()
    Heap.resetPeak()

    val passes   = mutable.ArrayBuffer.empty[(Boolean, PassOutcome)]
    val deadline = System.nanoTime() + rc.seconds * 1000000000L
    def count(traced: Boolean) = passes.count(_._1 == traced)
    def enough = System.nanoTime() >= deadline &&
      (if (rc.trace) count(false) >= MinTracedPasses && count(true) >= MinTracedPasses
       else count(false) >= MinPasses)
    def late = System.currentTimeMillis() - jvmStart > LastPassStartSec * 1000L
    while (!enough && !(late && passes.nonEmpty)) {
      val traced = rc.trace && passes.length % 2 == 1
      val o      = new PassOutcome
      rc.tracer.on   = traced
      rc.tracer.pass = passes.length + 1
      wl.pass(passes.length + 1, traced, o)
      passes += ((traced, o))
    }
    rc.tracer.on = false
    val peakHeapMb = Heap.peakMb
    wl.finish()

    val untraced = passes.filterNot(_._1).map(_._2).toSeq
    val traced   = passes.filter(_._1).map(_._2).toSeq
    def e2eValues(name: String, from: Seq[PassOutcome]): Seq[Double] = from.flatMap(_.e2e.get(name))

    val values = mutable.LinkedHashMap.empty[String, Seq[Double]]
    if (!rc.trace) {
      EndToEnd.foreach { case (name, _) => values(name) = e2eValues(name, untraced) }
      values("setup_s")      = setupNs.map(_ / 1e9)
      values("peak_heap_mb") = Seq(peakHeapMb)
      values("ok_share")     = Seq(1.0 - rc.failed.toDouble / rc.attempted)
    } else {
      PerLayer.foreach { case (name, _) => values(name) = traced.flatMap(_.layers.get(name)) }
      val replays = mutable.LinkedHashMap.empty[String, Double]
      wl.replays(replays)
      rc.op("lookup_probe")(replays ++= Replay.lookupProbe(rc.seed))
      replays.foreach { case (k, v) => values(k) = Seq(v) }
      val pooled = traced.flatMap(_.batchWaitsMs)
      if (pooled.nonEmpty) values("trainer.batch_wait_ms_p99") = Seq(Stats.percentile(pooled, 99))
      values("storage.ingest_ms") = setupNs.map(_ / 1e6)
      def med(name: String, from: Seq[PassOutcome]) = summarize(e2eValues(name, from)).map(_.median)
      for (t <- med("train_samples_per_s", traced); u <- med("train_samples_per_s", untraced))
        values("trace_overhead_share.train") = Seq(1 - t / u)
      for (t <- med("pipeline_s", traced); u <- med("pipeline_s", untraced))
        values("trace_overhead_share.pipeline") = Seq(t / u - 1)
    }

    val specs = if (rc.trace) PerLayer else EndToEnd
    val summaries = specs.map { case (name, unit) => (name, unit, summarize(values.getOrElse(name, Nil))) }
    // An end-to-end metric no pass produced means the workload failed.
    val missing = summaries.collect { case (n, _, None) if !rc.trace => n }
    val correct = rc.failed == 0 && missing.isEmpty

    // Counts taken in several traced passes must repeat exactly.
    val varyingCounts = PerLayer.collect {
      case (name, "count") if values.getOrElse(name, Nil).distinct.size > 1 => name
    }

    val env = ListMap(
      "workload" -> workload, "seed" -> rc.seed, "seconds" -> rc.seconds, "trace" -> rc.trace,
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "java" -> System.getProperty("java.version"),
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq,
      "source" -> opts.getOrElse("source", "unknown"),
      "passes_untraced" -> untraced.length, "passes_traced" -> traced.length,
      "spans" -> rc.tracer.numSpans)

    println(s"# ${env.map { case (k, v) => s"$k=${Json.render(v)}" }.mkString(" ")}")
    println(f"# ${"metric"}%-38s ${"median"}%14s ${"q1"}%14s ${"q3"}%14s ${"n"}%4s  unit")
    summaries.foreach {
      case (name, unit, Some(s)) =>
        println(f"# $name%-38s ${s.median}%14.4f ${s.q1}%14.4f ${s.q3}%14.4f ${s.n}%4d  $unit")
      case (name, unit, None) =>
        println(f"# $name%-38s ${"not observed"}%14s ${""}%14s ${""}%14s ${0}%4d  $unit")
    }
    println(f"# failed_share ${rc.failed.toDouble / rc.attempted}%.4f (${rc.failed} of ${rc.attempted} operations)")
    if (varyingCounts.nonEmpty) println(s"# counts that varied across traced passes: ${varyingCounts.mkString(", ")}")
    rc.failures.foreach(f => println(s"# FAILED $f"))

    val tag = s"$workload-seed${rc.seed}-trace${if (rc.trace) 1 else 0}"
    val detail = ListMap(
      "env" -> env, "correct" -> correct, "attempted" -> rc.attempted, "failed" -> rc.failed,
      "failures" -> rc.failures.toSeq, "varying_counts" -> varyingCounts,
      "metrics" -> ListMap(summaries.map { case (name, unit, s) =>
        name -> (ListMap[String, Any]("unit" -> unit, "values" -> values.getOrElse(name, Nil)) ++
          s.map(x => ListMap("median" -> x.median, "q1" -> x.q1, "q3" -> x.q3, "n" -> x.n)).getOrElse(Nil))
      }: _*))
    Files.write(Paths.get(rc.outDir, s"$tag.json"), Json.render(detail).getBytes("UTF-8"))
    if (rc.trace) rc.tracer.write(Paths.get(rc.outDir, s"$tag.spans.jsonl").toString)

    val metrics = ListMap(summaries.map { case (name, unit, s) =>
      name -> ListMap("value" -> s.map(_.median).getOrElse(0.0), "unit" -> unit)
    }: _*)
    println(Json.render(ListMap("correct" -> correct, "attempted" -> rc.attempted,
      "failed" -> rc.failed, "metrics" -> metrics)))
    System.out.flush()
    wl.close()
    sys.exit(0)
  }

  /** Write back the set-up's files before measuring, so the passes do not
    * share the disk with write-back of tens of thousands of new files.
    */
  private def settleFileSystem(): Unit =
    try new ProcessBuilder("sync").inheritIO().start().waitFor()
    catch { case _: java.io.IOException => () } // no sync(1): nothing to settle with

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: Main --workload ${Workloads.mkString("|")} --seed N " +
      "--seconds N --trace 0|1 --work-dir DIR --out-dir DIR [--source DIGEST]")
    sys.exit(2)
  }
}
